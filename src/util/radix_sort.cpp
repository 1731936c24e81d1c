#include "util/radix_sort.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstring>
#include <functional>

#include "util/check.hpp"

namespace bat {

namespace {

/// Widest field the counting pass buckets by: 4096 count slots (16 KB)
/// stay in L1 while the scatter still spreads the data finely enough that
/// the typical bucket is cache-resident for its finishing sort.
constexpr int kMaxBucketBits = 12;
/// MSD digit width inside a bucket: 256 slots, so the per-level tables of
/// the whole recursion (at most 8 levels) fit on the stack.
constexpr int kDigitBits = 8;
constexpr std::size_t kDigits = std::size_t{1} << kDigitBits;
/// Below this size insertion sort beats another counting level.
constexpr std::size_t kInsertionCutoff = 48;
/// Minimum elements per parallel block; below ~2 blocks the serial path
/// avoids task overhead.
constexpr std::size_t kMinBlock = std::size_t{1} << 15;

bool parallel(const ThreadPool* pool, std::size_t n) {
    return pool != nullptr && pool->num_threads() > 0 && n >= 2 * kMinBlock;
}

/// Stable: compares keys only, so equal keys keep their order.
void insertion_sort(KeyIndex* a, std::size_t n) {
    for (std::size_t i = 1; i < n; ++i) {
        const KeyIndex v = a[i];
        std::size_t j = i;
        for (; j > 0 && a[j - 1].key > v.key; --j) {
            a[j] = a[j - 1];
        }
        a[j] = v;
    }
}

/// Stable MSD radix sort of a[0, n) by key; `tmp` has room for n records.
/// Each level sorts by the 8-bit digit that starts at the highest bit where
/// the range's keys differ, so constant digits cost nothing and a range of
/// equal keys is already in (stable) order.
void msd_sort(KeyIndex* a, KeyIndex* tmp, std::size_t n) {
    if (n <= kInsertionCutoff) {
        insertion_sort(a, n);
        return;
    }
    std::uint64_t key_or = 0;
    std::uint64_t key_and = ~std::uint64_t{0};
    for (std::size_t i = 0; i < n; ++i) {
        key_or |= a[i].key;
        key_and &= a[i].key;
    }
    const std::uint64_t diff = key_or ^ key_and;
    if (diff == 0) {
        return;
    }
    const int shift = std::max(0, static_cast<int>(std::bit_width(diff)) - kDigitBits);
    std::array<std::uint32_t, kDigits> count{};
    for (std::size_t i = 0; i < n; ++i) {
        ++count[(a[i].key >> shift) & (kDigits - 1)];
    }
    std::array<std::uint32_t, kDigits> cursor;
    std::uint32_t run = 0;
    for (std::size_t d = 0; d < kDigits; ++d) {
        cursor[d] = run;
        run += count[d];
    }
    for (std::size_t i = 0; i < n; ++i) {
        tmp[cursor[(a[i].key >> shift) & (kDigits - 1)]++] = a[i];
    }
    std::memcpy(a, tmp, n * sizeof(KeyIndex));
    if (shift == 0) {
        return;  // every digit run holds equal keys
    }
    std::uint32_t lo = 0;
    for (std::size_t d = 0; d < kDigits; ++d) {
        if (count[d] > 1) {
            msd_sort(a + lo, tmp + lo, count[d]);
        }
        lo += count[d];
    }
}

/// Bits where at least two of the n keys differ (OR ^ AND of all keys).
template <typename KeyAt>
std::uint64_t differing_bits(std::size_t n, const KeyAt& key_at, ThreadPool* pool) {
    if (n == 0) {
        return 0;
    }
    std::atomic<std::uint64_t> key_or{0};
    std::atomic<std::uint64_t> key_and{~std::uint64_t{0}};
    parallel_ranges(parallel(pool, n) ? pool : nullptr, n, kMinBlock,
                    [&](std::size_t lo, std::size_t hi) {
                        std::uint64_t o = 0;
                        std::uint64_t a = ~std::uint64_t{0};
                        for (std::size_t i = lo; i < hi; ++i) {
                            o |= key_at(i);
                            a &= key_at(i);
                        }
                        key_or.fetch_or(o);
                        key_and.fetch_and(a);
                    });
    return key_or.load() ^ key_and.load();
}

/// The stable counting pass: scatters record i = rec(i) of n into `out` by
/// the bucket field (key >> shift) masked to `bits`. The keys must agree on
/// every bit above the field. Returns the 2^bits + 1 bucket boundaries.
template <typename RecAt>
std::vector<std::uint32_t> bucket_pass(std::size_t n, const RecAt& rec, int shift, int bits,
                                       KeyIndex* out, ThreadPool* pool) {
    const std::size_t nb = std::size_t{1} << bits;
    const std::uint64_t mask = nb - 1;
    auto bucket = [&](std::uint64_t key) {
        return static_cast<std::size_t>((key >> shift) & mask);
    };
    // Fixed block decomposition: the same input always produces the same
    // blocks and scatter offsets, so output does not depend on scheduling.
    const std::size_t nblocks =
        parallel(pool, n)
            ? std::clamp<std::size_t>(n / kMinBlock, 1, 4 * (pool->num_threads() + 1))
            : 1;
    auto for_blocks = [&](const std::function<void(std::size_t)>& f) {
        if (nblocks == 1) {
            f(0);
        } else {
            pool->parallel_for(0, nblocks, f, 1);
        }
    };
    auto block_lo = [&](std::size_t blk) { return blk * n / nblocks; };
    std::vector<std::uint32_t> hist(nblocks * nb, 0);
    for_blocks([&](std::size_t blk) {
        std::uint32_t* h = hist.data() + blk * nb;
        for (std::size_t i = block_lo(blk), hi = block_lo(blk + 1); i < hi; ++i) {
            ++h[bucket(rec(i).key)];
        }
    });
    // Exclusive scan in (bucket, block) order: stable across blocks.
    std::vector<std::uint32_t> starts(nb + 1);
    std::uint32_t run = 0;
    for (std::size_t b = 0; b < nb; ++b) {
        starts[b] = run;
        for (std::size_t blk = 0; blk < nblocks; ++blk) {
            const std::uint32_t c = hist[blk * nb + b];
            hist[blk * nb + b] = run;
            run += c;
        }
    }
    starts[nb] = run;
    for_blocks([&](std::size_t blk) {
        std::uint32_t* cursor = hist.data() + blk * nb;  // this block's row
        for (std::size_t i = block_lo(blk), hi = block_lo(blk + 1); i < hi; ++i) {
            const KeyIndex r = rec(i);
            out[cursor[bucket(r.key)]++] = r;
        }
    });
    return starts;
}

/// Offsets of the non-empty buckets of a bucket_pass (plus the end).
std::vector<std::uint32_t> nonempty_begin(const std::vector<std::uint32_t>& starts) {
    std::vector<std::uint32_t> begin;
    for (std::size_t b = 0; b + 1 < starts.size(); ++b) {
        if (starts[b + 1] > starts[b]) {
            begin.push_back(starts[b]);
        }
    }
    begin.push_back(starts.back());
    return begin;
}

/// Finish every bucket [begin[k], begin[k+1]) with msd_sort, then call
/// done(k, lo, hi) in the same task, while its records are still in cache.
/// Pooled, the buckets are cut into chunks of about equal record counts;
/// the sorted bytes do not depend on the cut.
template <typename Done>
void sort_buckets(KeyIndex* pairs, const std::vector<std::uint32_t>& begin, ThreadPool* pool,
                  const Done& done) {
    const std::size_t nb = begin.size() - 1;
    auto run = [&](std::size_t k_lo, std::size_t k_hi) {
        std::size_t widest = 0;
        for (std::size_t k = k_lo; k < k_hi; ++k) {
            widest = std::max<std::size_t>(widest, begin[k + 1] - begin[k]);
        }
        std::vector<KeyIndex> tmp(widest > kInsertionCutoff ? widest : 0);
        for (std::size_t k = k_lo; k < k_hi; ++k) {
            msd_sort(pairs + begin[k], tmp.data(), begin[k + 1] - begin[k]);
            done(k, begin[k], begin[k + 1]);
        }
    };
    const std::size_t n = begin.back();
    if (!parallel(pool, n)) {
        run(0, nb);
        return;
    }
    const std::size_t nchunks = 4 * (pool->num_threads() + 1);
    auto first = [&](std::size_t c) {  // first bucket starting at or after c's share
        const std::size_t at = c * n / nchunks;
        return static_cast<std::size_t>(
            std::partition_point(begin.begin(), begin.end() - 1,
                                 [&](std::uint32_t b) { return b < at; }) -
            begin.begin());
    };
    pool->parallel_for(0, nchunks, [&](std::size_t c) { run(first(c), first(c + 1)); }, 1);
}

}  // namespace

void radix_sort_pairs(std::span<KeyIndex> pairs, ThreadPool* pool) {
    const std::size_t n = pairs.size();
    const std::uint64_t diff =
        differing_bits(n, [&](std::size_t i) { return pairs[i].key; }, pool);
    if (diff == 0) {
        return;  // n < 2 or equal keys: already in stable order
    }
    // Bucket by the top (up to) 12 of the bits where the keys differ.
    const int key_bits = static_cast<int>(std::bit_width(diff));
    const int bits = std::min(key_bits, kMaxBucketBits);
    const std::vector<KeyIndex> in(pairs.begin(), pairs.end());
    const auto starts = bucket_pass(
        n, [&](std::size_t i) { return in[i]; }, key_bits - bits, bits, pairs.data(), pool);
    sort_buckets(pairs.data(), nonempty_begin(starts), pool,
                 [](std::size_t, std::uint32_t, std::uint32_t) {});
}

std::vector<std::uint32_t> radix_sort_order(std::span<const std::uint64_t> keys,
                                            ThreadPool* pool) {
    // The bits above the highest differing bit agree across all keys.
    const std::uint64_t diff =
        differing_bits(keys.size(), [&](std::size_t i) { return keys[i]; }, pool);
    const int key_bits = std::max(1, static_cast<int>(std::bit_width(diff)));
    return prefix_sort_order(keys, key_bits, std::min(key_bits, kMaxBucketBits), pool).order;
}

PrefixBuckets prefix_buckets(std::span<const std::uint64_t> keys, int key_bits,
                             int prefix_bits, ThreadPool* pool) {
    const std::size_t n = keys.size();
    BAT_CHECK_MSG(n <= static_cast<std::size_t>(UINT32_MAX),
                  "prefix_buckets indexes with 32 bits");
    BAT_CHECK(key_bits >= 1 && key_bits <= 64);
    BAT_CHECK(prefix_bits >= 1 && prefix_bits <= key_bits);
    const int bits = std::min(prefix_bits, kMaxBucketBits);
    const int shift = key_bits - bits;

    PrefixBuckets out;
    out.pairs.resize(n);
    out.begin = nonempty_begin(bucket_pass(
        n, [&](std::size_t i) { return KeyIndex{keys[i], static_cast<std::uint32_t>(i)}; },
        shift, bits, out.pairs.data(), pool));
    const std::size_t nb = out.begin.size() - 1;
    out.group_begin.resize(nb + 1);
    if (prefix_bits == bits) {
        // One group per bucket: the bucket field is the prefix.
        out.prefixes.resize(nb);
        for (std::size_t k = 0; k < nb; ++k) {
            out.group_begin[k] = static_cast<std::uint32_t>(k);
            out.prefixes[k] = out.pairs[out.begin[k]].key >> shift;
        }
        out.group_begin[nb] = static_cast<std::uint32_t>(nb);
        return out;
    }
    // Longer prefixes: the distinct values of the extra prefix bits in each
    // bucket, marked in a bitmap of at most 2^18 bits that is cleared again
    // through the list of values it found.
    const int extra = prefix_bits - bits;
    const int group_shift = key_bits - prefix_bits;
    const std::uint64_t extra_mask = (std::uint64_t{1} << extra) - 1;
    std::vector<std::uint64_t> seen((std::size_t{1} << extra) / 64 + 1, 0);
    std::vector<std::uint64_t> found;
    for (std::size_t k = 0; k < nb; ++k) {
        out.group_begin[k] = static_cast<std::uint32_t>(out.prefixes.size());
        found.clear();
        for (std::uint32_t i = out.begin[k]; i < out.begin[k + 1]; ++i) {
            const std::uint64_t e = (out.pairs[i].key >> group_shift) & extra_mask;
            std::uint64_t& word = seen[e / 64];
            if ((word >> (e % 64) & 1) == 0) {
                word |= std::uint64_t{1} << (e % 64);
                found.push_back(e);
            }
        }
        std::sort(found.begin(), found.end());
        const std::uint64_t bucket = out.pairs[out.begin[k]].key >> shift;
        for (const std::uint64_t e : found) {
            out.prefixes.push_back(bucket << extra | e);
            seen[e / 64] = 0;
        }
    }
    out.group_begin[nb] = static_cast<std::uint32_t>(out.prefixes.size());
    return out;
}

void sort_bucket(KeyIndex* a, KeyIndex* tmp, std::size_t n) { msd_sort(a, tmp, n); }

PrefixGroups prefix_sort_order(std::span<const std::uint64_t> keys, int key_bits,
                               int prefix_bits, ThreadPool* pool) {
    PrefixBuckets buckets = prefix_buckets(keys, key_bits, prefix_bits, pool);
    const int group_shift = key_bits - prefix_bits;
    PrefixGroups groups;
    groups.order.resize(keys.size());
    groups.begin.resize(buckets.prefixes.size() + 1);
    // Each sorted bucket starts its first group; a change of prefix inside
    // it starts the next one (found in the bucket's own task).
    sort_buckets(buckets.pairs.data(), buckets.begin, pool,
                 [&](std::size_t k, std::uint32_t lo, std::uint32_t hi) {
                     const KeyIndex* pairs = buckets.pairs.data();
                     std::uint32_t g = buckets.group_begin[k];
                     groups.begin[g] = lo;
                     for (std::uint32_t i = lo; i < hi; ++i) {
                         groups.order[i] = pairs[i].index;
                         if (i > lo &&
                             (pairs[i].key >> group_shift) != (pairs[i - 1].key >> group_shift)) {
                             groups.begin[++g] = i;
                         }
                     }
                     BAT_CHECK(g + 1 == buckets.group_begin[k + 1]);
                 });
    groups.begin.back() = static_cast<std::uint32_t>(keys.size());
    groups.prefixes = std::move(buckets.prefixes);
    return groups;
}

}  // namespace bat
