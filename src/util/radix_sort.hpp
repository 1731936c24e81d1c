#pragma once
// Bucket-first radix sort over (64-bit key, 32-bit index) pairs — the
// Morton-ordering hot path of the BAT build (paper §III-C; Burstedde's
// parallel tree algorithms likewise do local per-tree work inside a coarse
// space-filling-curve partition).
//
// One stable counting pass scatters the records into at most 4096 buckets
// by a 12-bit (or shorter) field of the key — for the BAT build that field
// is the Morton subprefix, so the non-empty buckets are exactly the
// treelets. Each bucket then finishes with a stable MSD radix sort (8-bit
// digits starting at the bucket's highest differing bit, insertion sort
// below 48 records) while it is cache-resident. With a pool, the bucket
// pass splits its histogram/scatter work into a fixed block decomposition
// and the bucket sorts run as one parallel_for; blocks, scatter offsets and
// per-bucket work are fixed up front, so the result is byte-identical
// regardless of thread count or schedule.

#include <cstdint>
#include <span>
#include <vector>

#include "util/thread_pool.hpp"

namespace bat {

/// One sort record: the key plus the record's original position. Kept to
/// 16 bytes so scatter passes move a single aligned struct.
struct KeyIndex {
    std::uint64_t key = 0;
    std::uint32_t index = 0;
};

/// Sort `pairs` in place by ascending key; entries with equal keys keep
/// their input order. When indices are distinct and ascending in the input
/// — the layout radix_sort_order produces — this is the (key, index) order.
void radix_sort_pairs(std::span<KeyIndex> pairs, ThreadPool* pool = nullptr);

/// Sorting permutation of `keys`: returns `order` such that
/// keys[order[0]] <= keys[order[1]] <= ... with ties broken by the original
/// index. Equivalent to
///   std::sort(order, [&](a, b) { return keys[a] != keys[b] ? keys[a] < keys[b]
///                                                          : a < b; })
/// but linear per digit and parallel over `pool`.
std::vector<std::uint32_t> radix_sort_order(std::span<const std::uint64_t> keys,
                                            ThreadPool* pool = nullptr);

/// Sorting permutation of `keys` grouped by prefix: the distinct values of
/// `key >> (key_bits - prefix_bits)` in ascending order, and where each
/// group starts in `order`. `order` is exactly radix_sort_order(keys), which
/// runs on this same engine.
struct PrefixGroups {
    std::vector<std::uint32_t> order;
    std::vector<std::uint64_t> prefixes;
    std::vector<std::uint32_t> begin;  // prefixes.size() + 1 offsets into order
};

/// Sort `keys` and group them by the `prefix_bits` bits below bit
/// `key_bits`; the keys must agree on every bit at or above `key_bits`
/// (Morton codes: key_bits = 63). Prefixes of up to 12 bits are the buckets
/// of the counting pass itself; longer prefixes split each sorted bucket
/// further. Runs prefix_buckets, then sort_bucket on every bucket.
PrefixGroups prefix_sort_order(std::span<const std::uint64_t> keys, int key_bits,
                               int prefix_bits, ThreadPool* pool = nullptr);

/// The counting pass of prefix_sort_order on its own, for callers that
/// finish each bucket themselves (the BAT build's treelet-range jobs).
/// Only non-empty buckets are listed. A bucket holds one group per distinct
/// prefix among its keys: exactly one when prefix_bits <= 12, found by a
/// linear distinct-value pass over the extra prefix bits otherwise.
struct PrefixBuckets {
    std::vector<KeyIndex> pairs;             // records in stable bucket order
    std::vector<std::uint32_t> begin;        // buckets + 1 offsets into pairs
    std::vector<std::uint32_t> group_begin;  // buckets + 1 offsets into prefixes
    std::vector<std::uint64_t> prefixes;     // every group's prefix, ascending
};
PrefixBuckets prefix_buckets(std::span<const std::uint64_t> keys, int key_bits,
                             int prefix_bits, ThreadPool* pool = nullptr);

/// Finish one bucket of prefix_buckets: stable MSD radix sort of a[0, n) by
/// key. `tmp` has room for n records.
void sort_bucket(KeyIndex* a, KeyIndex* tmp, std::size_t n);

}  // namespace bat
