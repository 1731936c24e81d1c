// Tests for the BAT on-disk format (paper §III-C3, Fig 2): serialization
// round trips, page alignment, dictionary compaction, mmap reads,
// corruption detection, and the gather-write sink (bytes on disk equal the
// in-memory serialization; I/O failures raise bat::Error).

#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <set>

#include "core/bat_file.hpp"
#include "test_helpers.hpp"
#include "workloads/mixtures.hpp"
#include "workloads/uniform.hpp"

namespace bat {
namespace {

const Box kUnit({0, 0, 0}, {1, 1, 1});

BatData make_bat(std::size_t n, std::size_t nattrs, std::uint64_t seed) {
    return build_bat(make_uniform_particles(kUnit, n, nattrs, seed), BatConfig{});
}

TEST(BatFileTest, HeaderFieldsSurvive) {
    const BatData bat = make_bat(10'000, 3, 1);
    const auto bytes = serialize_bat(bat);
    const BatFile file{std::span<const std::byte>(bytes)};
    EXPECT_EQ(file.num_particles(), 10'000u);
    EXPECT_EQ(file.num_attrs(), 3u);
    // The auto-adapted subprefix actually used is recorded in the header.
    EXPECT_EQ(file.header().subprefix_bits,
              static_cast<std::uint32_t>(bat.config.subprefix_bits));
    EXPECT_GE(file.header().subprefix_bits, 1u);
    EXPECT_LE(file.header().subprefix_bits, 12u);
    EXPECT_EQ(file.header().lod_per_inner, 8u);
    EXPECT_EQ(file.header().max_leaf_size, 128u);
    EXPECT_EQ(file.num_treelets(), bat.treelets.size());
    EXPECT_EQ(file.shallow_nodes().size(), bat.shallow_nodes.size());
    EXPECT_EQ(file.bounds(), bat.bounds);
    EXPECT_EQ(file.header().file_size, bytes.size());
}

TEST(BatFileTest, AttrTableSurvives) {
    const BatData bat = make_bat(5'000, 4, 2);
    const auto bytes = serialize_bat(bat);
    const BatFile file{std::span<const std::byte>(bytes)};
    for (std::size_t a = 0; a < 4; ++a) {
        EXPECT_EQ(file.attr_names()[a], bat.particles.attr_names()[a]);
        EXPECT_EQ(file.attr_range(a), bat.attr_ranges[a]);
    }
}

TEST(BatFileTest, TreeletsArePageAligned) {
    const BatData bat = make_bat(50'000, 2, 3);
    const auto bytes = serialize_bat(bat);
    const BatFile file{std::span<const std::byte>(bytes)};
    ASSERT_GT(file.num_treelets(), 1u);
    for (std::size_t t = 0; t < file.num_treelets(); ++t) {
        const BatFile::TreeletView view = file.treelet(t);
        EXPECT_EQ(view.num_points > 0, true);
    }
    // Alignment is asserted inside treelet(); also check the directory raw.
    // (The parse would have thrown on misalignment.)
}

TEST(BatFileTest, TreeletContentsMatchBuild) {
    const BatData bat = make_bat(30'000, 2, 4);
    const auto bytes = serialize_bat(bat);
    const BatFile file{std::span<const std::byte>(bytes)};
    ASSERT_EQ(file.num_treelets(), bat.treelets.size());
    for (std::size_t t = 0; t < file.num_treelets(); ++t) {
        const Treelet& built = bat.treelets[t];
        const BatFile::TreeletView view = file.treelet(t);
        ASSERT_EQ(view.nodes.size(), built.nodes.size());
        EXPECT_EQ(view.num_points, built.num_particles);
        EXPECT_EQ(view.max_depth, built.max_depth);
        EXPECT_EQ(view.first_particle, built.first_particle);
        for (std::size_t n = 0; n < view.nodes.size(); ++n) {
            EXPECT_EQ(view.nodes[n].start, built.nodes[n].start);
            EXPECT_EQ(view.nodes[n].count, built.nodes[n].count);
            EXPECT_EQ(view.nodes[n].own_count, built.nodes[n].own_count);
            EXPECT_EQ(view.nodes[n].right_child, built.nodes[n].right_child);
        }
        // Particle payloads: positions and attributes must match the
        // build's reordered arrays.
        for (std::uint32_t i = 0; i < view.num_points; ++i) {
            EXPECT_EQ(view.position(i), bat.particles.position(built.first_particle + i));
            for (std::size_t a = 0; a < 2; ++a) {
                EXPECT_EQ(view.attrs[a][i], bat.particles.attr(a)[built.first_particle + i]);
            }
        }
    }
}

TEST(BatFileTest, DictionaryResolvesToOriginalBitmaps) {
    const BatData bat = make_bat(30'000, 3, 5);
    const auto bytes = serialize_bat(bat);
    const BatFile file{std::span<const std::byte>(bytes)};
    // Dictionary entry 0 is the reserved all-ones bitmap.
    ASSERT_FALSE(file.dictionary().empty());
    EXPECT_EQ(file.dictionary()[kBitmapIdAllOnes], 0xFFFFFFFFu);
    // Shallow bitmaps resolve to the build's values.
    for (std::size_t i = 0; i < bat.shallow_nodes.size(); ++i) {
        for (std::size_t a = 0; a < 3; ++a) {
            EXPECT_EQ(file.shallow_bitmap(i, a), bat.shallow_bitmaps[i * 3 + a]);
        }
    }
    for (std::size_t t = 0; t < file.num_treelets(); ++t) {
        const BatFile::TreeletView view = file.treelet(t);
        for (std::size_t n = 0; n < view.nodes.size(); ++n) {
            for (std::size_t a = 0; a < 3; ++a) {
                EXPECT_EQ(file.treelet_bitmap(view, n, a),
                          bat.treelets[t].bitmaps[n * 3 + a]);
            }
        }
    }
}

TEST(BatFileTest, DictionaryDeduplicates) {
    const BatData bat = make_bat(100'000, 2, 6);
    const auto bytes = serialize_bat(bat);
    const BatFile file{std::span<const std::byte>(bytes)};
    std::size_t total_bitmaps = bat.shallow_bitmaps.size();
    for (const Treelet& t : bat.treelets) {
        total_bitmaps += t.bitmaps.size();
    }
    EXPECT_LT(file.dictionary().size(), total_bitmaps / 2)
        << "dictionary should be much smaller than the raw bitmap count";
    // Entries are unique.
    std::set<std::uint32_t> unique(file.dictionary().begin(), file.dictionary().end());
    EXPECT_EQ(unique.size(), file.dictionary().size());
}

TEST(BatFileTest, RoundTripThroughDisk) {
    const testing::TempDir dir;
    const BatData bat = make_bat(20'000, 2, 7);
    const auto path = dir.path() / "test.bat";
    write_bat_file(path, bat);
    const BatFile file(path);  // mmap path
    EXPECT_EQ(file.num_particles(), 20'000u);
    EXPECT_EQ(file.num_treelets(), bat.treelets.size());
    const BatFile::TreeletView view = file.treelet(0);
    EXPECT_EQ(view.position(0), bat.particles.position(0));
}

TEST(BatFileTest, EmptyBat) {
    ParticleSet set(uniform_attr_names(2));
    const BatData bat = build_bat(std::move(set), BatConfig{});
    const auto bytes = serialize_bat(bat);
    const BatFile file{std::span<const std::byte>(bytes)};
    EXPECT_EQ(file.num_particles(), 0u);
    EXPECT_EQ(file.num_treelets(), 0u);
    EXPECT_EQ(file.num_attrs(), 2u);
}

TEST(BatFileTest, BadMagicRejected) {
    const BatData bat = make_bat(100, 1, 8);
    auto bytes = serialize_bat(bat);
    bytes[0] = std::byte{0x00};
    EXPECT_THROW(BatFile{std::span<const std::byte>(bytes)}, Error);
}

TEST(BatFileTest, TruncationRejected) {
    const BatData bat = make_bat(100, 1, 9);
    const auto bytes = serialize_bat(bat);
    const std::span<const std::byte> truncated(bytes.data(), bytes.size() / 2);
    EXPECT_THROW(BatFile{truncated}, Error);
}

TEST(BatFileTest, TinyFileRejected) {
    const std::vector<std::byte> bytes(16);
    EXPECT_THROW(BatFile{std::span<const std::byte>(bytes)}, Error);
}

TEST(BatFileTest, LayoutOverheadIsSmall) {
    // Paper §VI-B: the layout requires ~0.9% additional memory. With 4 KB
    // alignment padding the overhead depends on treelet sizes; for realistic
    // sizes it must stay in the low percent range.
    const BatData bat = make_bat(200'000, 7, 10);
    const auto bytes = serialize_bat(bat);
    const BatSizeStats stats = bat_size_stats(bat, bytes.size());
    EXPECT_GT(stats.raw_particle_bytes, 0u);
    EXPECT_LT(stats.overhead_fraction(), 0.03)
        << "layout overhead " << stats.overhead_fraction() * 100 << "%";
}

TEST(BatFileTest, ClusteredDataRoundTrip) {
    const auto blobs = make_random_blobs(kUnit, 4, 20);
    ParticleSet set = make_mixture_particles(kUnit, blobs, 40'000, 3, 21);
    const auto keys = testing::particle_keys(set);
    const BatData bat = build_bat(std::move(set), BatConfig{});
    const auto bytes = serialize_bat(bat);
    const BatFile file{std::span<const std::byte>(bytes)};
    // Reassemble all particles from the file and compare populations.
    ParticleSet reassembled(bat.particles.attr_names());
    for (std::size_t t = 0; t < file.num_treelets(); ++t) {
        const BatFile::TreeletView view = file.treelet(t);
        std::vector<double> attrs(3);
        for (std::uint32_t i = 0; i < view.num_points; ++i) {
            for (std::size_t a = 0; a < 3; ++a) {
                attrs[a] = view.attrs[a][i];
            }
            reassembled.push_back(view.position(i), attrs);
        }
    }
    EXPECT_EQ(testing::particle_keys(reassembled), keys);
}

/// write_bat_file's bytes on disk must equal serialize_bat's.
void expect_file_matches_serialize(const BatData& bat, const BatDeltaSpec* delta = nullptr) {
    const testing::TempDir dir;
    const auto path = dir.path() / "gather.bat";
    const std::vector<std::byte> expected = serialize_bat(bat, delta);
    EXPECT_EQ(write_bat_file(path, bat, delta), expected.size());
    EXPECT_EQ(read_file(path), expected);
}

TEST(BatFileTest, GatherWriteMatchesSerializeOnDegenerateBats) {
    // Empty BAT: header, attribute table and no treelets.
    expect_file_matches_serialize(build_bat(ParticleSet(uniform_attr_names(2)), BatConfig{}));
    // No attributes at all.
    expect_file_matches_serialize(make_bat(5'000, 0, 11));
    // One treelet: coincident particles share one Morton code.
    ParticleSet one(uniform_attr_names(3));
    for (int i = 0; i < 300; ++i) {
        const std::vector<double> attrs{0.1 * i, 1.0, -2.0 * i};
        one.push_back({0.5f, 0.25f, 0.75f}, attrs);
    }
    const BatData single = build_bat(std::move(one), BatConfig{});
    ASSERT_EQ(single.treelets.size(), 1u);
    expect_file_matches_serialize(single);
}

TEST(BatFileTest, GatherWriteSpansSeveralWritevBatches) {
    // 512 treelets of several segments each (block header, nodes, bitmap
    // IDs, padding, positions, attributes) is well over the 1024 ranges one
    // writev call takes.
    BatConfig config;
    config.auto_subprefix = false;
    config.subprefix_bits = 9;
    const BatData bat =
        build_bat(make_uniform_particles(kUnit, 40'000, 2, 12), config);
    ASSERT_GE(bat.treelets.size(), 400u);
    expect_file_matches_serialize(bat);
}

TEST(BatFileTest, GatherWriteMatchesSerializeWithDeltaRefs) {
    const BatData bat = make_bat(30'000, 2, 13);
    ASSERT_GT(bat.treelets.size(), 2u);
    BatDeltaSpec spec;
    spec.base_files = {"prior_a.bat", "prior_b.bat"};
    spec.refs.resize(bat.treelets.size());
    for (std::size_t t = 0; t < bat.treelets.size(); t += 2) {
        spec.refs[t] = DeltaRef{static_cast<std::int32_t>(t / 2 % 2),
                                static_cast<std::uint32_t>(t + 1)};
    }
    expect_file_matches_serialize(bat, &spec);
    const std::vector<std::byte> bytes = serialize_bat(bat, &spec);
    FileHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    EXPECT_NE(header.flags & kBatFlagHasBases, 0u);
    EXPECT_LT(bytes.size(), serialize_bat(bat).size());
}

/// `write` must throw bat::Error naming `path` and the system error text.
template <typename Write>
void expect_write_error(const Write& write, const std::filesystem::path& path, int err) {
    try {
        write();
        ADD_FAILURE() << "no error writing " << path;
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(path.string()), std::string::npos) << what;
        EXPECT_NE(what.find(std::strerror(err)), std::string::npos) << what;
    }
}

TEST(BatFileTest, WriteUnderRegularFileRaisesError) {
    const testing::TempDir dir;
    const BatData bat = make_bat(2'000, 2, 14);
    const std::vector<std::byte> bytes = serialize_bat(bat);
    const auto plain = dir.path() / "plain.bat";
    write_file(plain, bytes);
    const auto child = plain / "child.bat";
    expect_write_error([&] { write_file(child, bytes); }, child, ENOTDIR);
    expect_write_error([&] { write_bat_file(child, bat); }, child, ENOTDIR);
}

TEST(BatFileTest, WriteToFullDeviceRaisesError) {
    const std::filesystem::path full = "/dev/full";
    if (!std::filesystem::exists(full)) {
        GTEST_SKIP() << "no /dev/full on this platform";
    }
    const BatData bat = make_bat(2'000, 2, 15);
    const std::vector<std::byte> bytes = serialize_bat(bat);
    expect_write_error([&] { write_file(full, bytes); }, full, ENOSPC);
    expect_write_error([&] { write_bat_file(full, bat); }, full, ENOSPC);
}

}  // namespace
}  // namespace bat
