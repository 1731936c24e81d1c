// Unit tests for the bucket-first radix sort that orders Morton codes in
// build_bat: equivalence with std::sort on adversarial key patterns
// (bucket-occupancy extremes, duplicate runs around the insertion-sort
// cutoff), stability (index tie-break), prefix grouping, and
// serial-vs-pooled identity.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/radix_sort.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace bat {
namespace {

/// The order build_bat relied on before the radix sort: iota + std::sort
/// with an indirect (key, index) comparator.
std::vector<std::uint32_t> reference_order(const std::vector<std::uint64_t>& keys) {
    std::vector<std::uint32_t> order(keys.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
        return keys[a] != keys[b] ? keys[a] < keys[b] : a < b;
    });
    return order;
}

void expect_matches_reference(const std::vector<std::uint64_t>& keys) {
    const std::vector<std::uint32_t> expected = reference_order(keys);
    EXPECT_EQ(radix_sort_order(keys, nullptr), expected) << "serial radix diverged";
    ThreadPool pool(4);
    EXPECT_EQ(radix_sort_order(keys, &pool), expected) << "pooled radix diverged";
}

TEST(RadixSortTest, Empty) { expect_matches_reference({}); }

TEST(RadixSortTest, SingleElement) { expect_matches_reference({42}); }

TEST(RadixSortTest, AllEqualKeys) {
    // Equal keys need no pass at all and must yield the identity permutation.
    expect_matches_reference(std::vector<std::uint64_t>(100'000, 0xABCDEF));
}

TEST(RadixSortTest, PreSorted) {
    std::vector<std::uint64_t> keys(100'000);
    std::iota(keys.begin(), keys.end(), 0u);
    expect_matches_reference(keys);
}

TEST(RadixSortTest, ReverseSorted) {
    std::vector<std::uint64_t> keys(100'000);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        keys[i] = keys.size() - i;
    }
    expect_matches_reference(keys);
}

TEST(RadixSortTest, RandomWithDuplicates) {
    Pcg32 rng(7);
    std::vector<std::uint64_t> keys(200'000);
    for (auto& k : keys) {
        k = rng.next_u32() & 0xFFF;  // heavy duplication exercises stability
    }
    expect_matches_reference(keys);
}

TEST(RadixSortTest, FullWidthRandomKeys) {
    Pcg32 rng(9);
    std::vector<std::uint64_t> keys(150'000);
    for (auto& k : keys) {
        k = rng.next_u64();  // all 8 digit passes active, high bit set
    }
    expect_matches_reference(keys);
}

TEST(RadixSortTest, OnlyHighByteDiffers) {
    // The bucket field sits at the highest differing bits, here all in the
    // top byte; the buckets then need no finishing sort.
    Pcg32 rng(11);
    std::vector<std::uint64_t> keys(100'000);
    for (auto& k : keys) {
        k = (std::uint64_t{rng.next_u32() & 0xFF} << 56) | 0x123456;
    }
    expect_matches_reference(keys);
}

TEST(RadixSortTest, BelowComparisonCutoff) {
    Pcg32 rng(13);
    std::vector<std::uint64_t> keys(100);  // a handful of insertion-sorted runs
    for (auto& k : keys) {
        k = rng.next_u64() & 0xF;
    }
    expect_matches_reference(keys);
}

TEST(RadixSortTest, PairsStableOnEqualKeys) {
    // radix_sort_pairs with arbitrary (non-iota) indices: equal keys must
    // keep their input order (every pass is stable), which is what makes
    // radix_sort_order reproduce the (key, index) tie-break.
    Pcg32 rng(17);
    std::vector<KeyIndex> pairs(50'000);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        pairs[i] = KeyIndex{rng.next_u32() & 0x3, static_cast<std::uint32_t>(i * 7 % 50'000)};
    }
    std::vector<KeyIndex> expected = pairs;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const KeyIndex& a, const KeyIndex& b) { return a.key < b.key; });
    radix_sort_pairs(pairs, nullptr);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        ASSERT_EQ(pairs[i].key, expected[i].key) << "at " << i;
        ASSERT_EQ(pairs[i].index, expected[i].index) << "at " << i;
    }
}

TEST(RadixSortTest, PooledMatchesSerialOnLargeInput) {
    // Large enough to take the parallel path (n >= 2 * kMinBlock = 64k).
    Pcg32 rng(19);
    std::vector<std::uint64_t> keys(300'000);
    for (auto& k : keys) {
        k = rng.next_u64() & ((std::uint64_t{1} << 63) - 1);
    }
    const std::vector<std::uint32_t> serial = radix_sort_order(keys, nullptr);
    ThreadPool pool(4);
    EXPECT_EQ(radix_sort_order(keys, &pool), serial);
}

constexpr int kKeyBits = 63;  // Morton codes

/// Random 63-bit key whose top 12 bits are `top`.
std::uint64_t key_under(std::uint64_t top, Pcg32& rng) {
    return top << (kKeyBits - 12) | (rng.next_u64() & ((std::uint64_t{1} << (kKeyBits - 12)) - 1));
}

/// Groups of the std::sort reference: each distinct key >> (63 - bits) in
/// ascending order and where it starts in the reference order.
PrefixGroups reference_groups(const std::vector<std::uint64_t>& keys, int bits) {
    PrefixGroups g;
    g.order = reference_order(keys);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::uint64_t prefix = keys[g.order[i]] >> (kKeyBits - bits);
        if (g.prefixes.empty() || g.prefixes.back() != prefix) {
            g.prefixes.push_back(prefix);
            g.begin.push_back(static_cast<std::uint32_t>(i));
        }
    }
    g.begin.push_back(static_cast<std::uint32_t>(keys.size()));
    return g;
}

void expect_groups_match_reference(const std::vector<std::uint64_t>& keys, int bits) {
    const PrefixGroups expected = reference_groups(keys, bits);
    ThreadPool pool(4);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        const PrefixGroups got = prefix_sort_order(keys, kKeyBits, bits, p);
        const char* mode = p == nullptr ? "serial" : "pooled";
        EXPECT_EQ(got.order, expected.order) << mode << " order, bits=" << bits;
        EXPECT_EQ(got.prefixes, expected.prefixes) << mode << " prefixes, bits=" << bits;
        EXPECT_EQ(got.begin, expected.begin) << mode << " group starts, bits=" << bits;
    }
}

TEST(RadixSortTest, OneGiantBucket) {
    // Every key shares its top 12 bits: one bucket holds everything and the
    // finishing MSD sort does all the work.
    Pcg32 rng(23);
    std::vector<std::uint64_t> keys(200'000);
    for (auto& k : keys) {
        k = key_under(0xA5C, rng);
    }
    expect_matches_reference(keys);
    expect_groups_match_reference(keys, 12);
    EXPECT_EQ(prefix_sort_order(keys, kKeyBits, 12).prefixes.size(), 1u);
}

TEST(RadixSortTest, EveryBucketNonEmpty) {
    Pcg32 rng(29);
    std::vector<std::uint64_t> keys(4096 * 20);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        keys[i] = key_under((i * 2654435761u) % 4096, rng);  // scattered, all 4096 hit
    }
    expect_matches_reference(keys);
    expect_groups_match_reference(keys, 12);
    EXPECT_EQ(prefix_sort_order(keys, kKeyBits, 12).prefixes.size(), 4096u);
}

TEST(RadixSortTest, DuplicateRunsStraddleInsertionCutoff) {
    // Runs of one key whose lengths bracket the 48-record insertion-sort
    // cutoff, shuffled so that equal keys must come back in index order.
    Pcg32 rng(31);
    std::vector<std::uint64_t> keys;
    const std::uint64_t base = std::uint64_t{0x3C1} << (kKeyBits - 12);
    for (const std::size_t run : {1, 2, 46, 47, 48, 49, 50, 95, 96, 97, 200}) {
        const std::uint64_t key = base | (rng.next_u64() & 0xFFFF);
        keys.insert(keys.end(), run, key);
    }
    for (std::size_t i = keys.size(); i > 1; --i) {
        std::swap(keys[i - 1], keys[rng.next_bounded(static_cast<std::uint32_t>(i))]);
    }
    expect_matches_reference(keys);
    expect_groups_match_reference(keys, 12);
}

TEST(RadixSortTest, SizesAroundOldComparisonCutoff) {
    for (const std::size_t n : {255, 256, 257}) {
        Pcg32 rng(static_cast<std::uint64_t>(n));
        std::vector<std::uint64_t> keys(n);
        for (auto& k : keys) {
            k = rng.next_u64() & ((std::uint64_t{1} << kKeyBits) - 1) & ~std::uint64_t{0xFF};
        }
        keys[n / 2] = keys[n / 3];  // at least one tie
        expect_matches_reference(keys);
        expect_groups_match_reference(keys, 1);
        expect_groups_match_reference(keys, 12);
    }
}

TEST(RadixSortTest, PrefixGroupsAtOneAndTwelveBits) {
    Pcg32 rng(37);
    std::vector<std::uint64_t> keys(50'000);
    for (auto& k : keys) {
        // Clustered: few distinct top bits, dense low bits.
        k = key_under(rng.next_u32() % 7 * 600, rng) >> (rng.next_u32() % 3);
    }
    expect_groups_match_reference(keys, 1);
    expect_groups_match_reference(keys, 12);
    // Longer prefixes than the 12-bit bucket field split each bucket.
    expect_groups_match_reference(keys, 15);
}

TEST(RadixSortTest, PooledPrefixGroupsMatchSerial) {
    // Clustered keys over the parallel path: skewed bucket sizes exercise
    // the record-count chunking of the per-bucket sorts.
    Pcg32 rng(41);
    std::vector<std::uint64_t> keys(300'000);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::uint64_t top = i % 5 == 0 ? rng.next_u32() % 4096 : 0x800 + i % 3;
        keys[i] = key_under(top, rng);
    }
    for (const int bits : {1, 8, 12}) {
        const PrefixGroups serial = prefix_sort_order(keys, kKeyBits, bits, nullptr);
        ThreadPool pool(4);
        const PrefixGroups pooled = prefix_sort_order(keys, kKeyBits, bits, &pool);
        EXPECT_EQ(pooled.order, serial.order) << "bits=" << bits;
        EXPECT_EQ(pooled.prefixes, serial.prefixes) << "bits=" << bits;
        EXPECT_EQ(pooled.begin, serial.begin) << "bits=" << bits;
    }
}

}  // namespace
}  // namespace bat
