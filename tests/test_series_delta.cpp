// Tests for incremental (delta) series writes: bit-exact reads through
// delta chains versus full rewrites on every timestep — via Dataset, the
// collective read_particles, DataService query rounds, and the
// LeafFileCache — plus non-vacuity of the delta path (plan reuse, clean
// treelets, keyframes), drift-forced replans, reused plans whose per-rank
// counts drifted under the replan threshold, and exactness oracles for the
// treelets a delta build skips (no false clean, no missed clean, ties).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

#include "core/bat_file.hpp"
#include "core/dataset.hpp"
#include "core/metadata.hpp"
#include "io/data_service.hpp"
#include "io/leaf_cache.hpp"
#include "io/reader.hpp"
#include "io/series.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"
#include "workloads/boiler.hpp"
#include "workloads/dambreak.hpp"
#include "workloads/decomposition.hpp"
#include "workloads/uniform.hpp"

namespace bat {
namespace {

const Box kDomain({0, 0, 0}, {2, 2, 2});
constexpr int kRanks = 4;
constexpr int kSteps = 10;  // keyframes at 0 and 8 (default interval 8)

std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Step `s` of a slowly-evolving series: the base population with the
/// particles inside a small interior hot box re-jittered (clamped to the
/// box, so global bounds and attribute ranges stay pinned by the rest).
ParticleSet make_step(const ParticleSet& base, int s) {
    ParticleSet global = base;
    if (s == 0) {
        return global;
    }
    // Off-center on purpose: a box straddling the domain center would put
    // hot particles in every Morton octant and no leaf would ever be fully
    // clean (defeating the whole-file reuse assertions below).
    const Box hot({0.2f, 0.2f, 0.2f}, {0.6f, 0.6f, 0.6f});
    auto cl = [](float v, float a, float b) { return v < a ? a : (v > b ? b : v); };
    for (std::size_t i = 0; i < global.count(); ++i) {
        Vec3 p = global.position(i);
        if (!hot.contains(p)) {
            continue;
        }
        const std::uint64_t h =
            splitmix64(static_cast<std::uint64_t>(s) << 32 | static_cast<std::uint64_t>(i));
        auto jit = [&](std::uint64_t w) {
            return 0.02f * (2.0f * static_cast<float>(w >> 40) /
                                static_cast<float>(1u << 24) -
                            1.0f);
        };
        p.x = cl(p.x + jit(h), hot.lower.x, hot.upper.x);
        p.y = cl(p.y + jit(splitmix64(h)), hot.lower.y, hot.upper.y);
        p.z = cl(p.z + jit(splitmix64(h + 1)), hot.lower.z, hot.upper.z);
        global.set_position(i, p);
    }
    return global;
}

WriterConfig series_config(const std::filesystem::path& dir, const std::string& name) {
    WriterConfig config;
    config.tree.target_file_size = 32 << 10;
    config.bat.target_treelet_particles = 256;  // several treelets per leaf
    config.directory = dir;
    config.basename = name;
    return config;
}

/// Both series written over the same steps: `full_meta[s]` from plain
/// per-step write_particles (full rewrites), the delta series through
/// SeriesWriter. Also captures the delta pass's per-step WriteResults
/// (slot per (step, rank)).
struct WrittenSeries {
    testing::TempDir dir;
    ParticleSet base;
    std::filesystem::path manifest;
    std::vector<std::filesystem::path> full_meta;
    std::vector<std::vector<WriteResult>> delta_results;  // [step][rank]

    WrittenSeries() {
        base = make_uniform_particles(kDomain, 12'000, 2, 77);
        const GridDecomp decomp = grid_decomp_3d(kRanks, kDomain);
        full_meta.resize(kSteps);
        delta_results.assign(kSteps, std::vector<WriteResult>(kRanks));
        std::mutex mutex;
        vmpi::Runtime::run(kRanks, [&](vmpi::Comm& comm) {
            const int r = comm.rank();
            SeriesWriter writer(series_config(dir.path(), "delta"));
            for (int s = 0; s < kSteps; ++s) {
                const auto per_rank = partition_particles(make_step(base, s), decomp);
                WriterConfig full = series_config(dir.path(), "full_t" + std::to_string(s));
                const WriteResult fw =
                    write_particles(comm, per_rank[static_cast<std::size_t>(r)],
                                    decomp.rank_box(r), full);
                const WriteResult dw =
                    writer.write_timestep(comm, s, per_rank[static_cast<std::size_t>(r)],
                                          decomp.rank_box(r));
                std::lock_guard<std::mutex> lock(mutex);
                full_meta[static_cast<std::size_t>(s)] = fw.metadata_path;
                delta_results[static_cast<std::size_t>(s)][static_cast<std::size_t>(r)] =
                    dw;
            }
            const auto path = writer.finalize(comm);
            if (r == 0) {
                std::lock_guard<std::mutex> lock(mutex);
                manifest = path;
            }
        });
    }
};

WrittenSeries& written() {
    static WrittenSeries* w = new WrittenSeries();
    return *w;
}

void expect_bit_exact(const ParticleSet& a, const ParticleSet& b) {
    ASSERT_EQ(a.count(), b.count());
    ASSERT_EQ(a.num_attrs(), b.num_attrs());
    const auto pa = a.positions();
    const auto pb = b.positions();
    EXPECT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin()));
    for (std::size_t at = 0; at < a.num_attrs(); ++at) {
        const auto va = a.attr(at);
        const auto vb = b.attr(at);
        EXPECT_TRUE(std::equal(va.begin(), va.end(), vb.begin()));
    }
}

TEST(SeriesDeltaTest, DatasetReadsBitExactEveryStep) {
    WrittenSeries& w = written();
    SeriesReader reader(w.manifest);
    ASSERT_EQ(reader.num_timesteps(), static_cast<std::size_t>(kSteps));
    for (int s = 0; s < kSteps; ++s) {
        Dataset delta = reader.open_timestep(s);
        Dataset full(w.full_meta[static_cast<std::size_t>(s)]);
        expect_bit_exact(delta.collect(BatQuery{}), full.collect(BatQuery{}));
    }
}

TEST(SeriesDeltaTest, CollectiveReadsBitExactThroughLeafCache) {
    WrittenSeries& w = written();
    SeriesReader reader(w.manifest);
    const GridDecomp decomp = grid_decomp_3d(kRanks, kDomain);
    // A small cache forces evictions and re-opens mid-series, so delta
    // base files resolve through the cache's re-entrant opener repeatedly.
    LeafFileCache cache(4);
    for (int s = 0; s < kSteps; ++s) {
        const auto delta_meta =
            w.manifest.parent_path() / reader.series().timesteps[s].second;
        std::vector<ParticleSet> got_delta(kRanks);
        std::vector<ParticleSet> got_full(kRanks);
        vmpi::Runtime::run(kRanks, [&](vmpi::Comm& comm) {
            const int r = comm.rank();
            ReaderConfig rc;
            rc.cache = &cache;
            got_delta[static_cast<std::size_t>(r)] =
                read_particles(comm, delta_meta, decomp.rank_read_box(r), rc)
                    .particles;
            got_full[static_cast<std::size_t>(r)] =
                read_particles(comm, w.full_meta[static_cast<std::size_t>(s)],
                               decomp.rank_read_box(r), rc)
                    .particles;
        });
        for (int r = 0; r < kRanks; ++r) {
            expect_bit_exact(got_delta[static_cast<std::size_t>(r)],
                             got_full[static_cast<std::size_t>(r)]);
        }
    }
}

TEST(SeriesDeltaTest, DataServiceRoundsMatchFullRewrites) {
    WrittenSeries& w = written();
    SeriesReader reader(w.manifest);
    const GridDecomp decomp = grid_decomp_3d(kRanks, kDomain);
    for (const int s : {1, 7, 9}) {  // delta steps, incl. one past a keyframe
        const auto delta_meta =
            w.manifest.parent_path() / reader.series().timesteps[s].second;
        std::vector<ParticleSet> got_delta(kRanks);
        std::vector<ParticleSet> got_full(kRanks);
        vmpi::Runtime::run(kRanks, [&](vmpi::Comm& comm) {
            const int r = comm.rank();
            BatQuery query;
            query.box = decomp.rank_read_box(r);
            query.inclusive_upper = false;
            {
                DataService service(comm, delta_meta);
                got_delta[static_cast<std::size_t>(r)] = service.query_round(query);
            }
            {
                DataService service(comm, w.full_meta[static_cast<std::size_t>(s)]);
                got_full[static_cast<std::size_t>(r)] = service.query_round(query);
            }
        });
        for (int r = 0; r < kRanks; ++r) {
            expect_bit_exact(got_delta[static_cast<std::size_t>(r)],
                             got_full[static_cast<std::size_t>(r)]);
        }
    }
}

TEST(SeriesDeltaTest, PlanReuseAndDeltaHitsAreNotVacuous) {
    WrittenSeries& w = written();
    for (int s = 0; s < kSteps; ++s) {
        std::uint64_t clean = 0;
        std::uint64_t written_treelets = 0;
        for (int r = 0; r < kRanks; ++r) {
            const WriteResult& wr =
                w.delta_results[static_cast<std::size_t>(s)][static_cast<std::size_t>(r)];
            // Step 0 has no plan to reuse; the workload never drifts, so
            // every later step must skip gather/tree_build/scatter.
            EXPECT_EQ(wr.reused_plan, s > 0) << "step " << s << " rank " << r;
            clean += wr.delta_treelets_clean;
            written_treelets += wr.delta_treelets_written;
        }
        if (s == 0 || s == 8) {
            // Keyframes write everything inline.
            EXPECT_EQ(clean, 0u) << "keyframe step " << s;
            EXPECT_GT(written_treelets, 0u);
        } else {
            // Steady steps must actually reference prior-step treelets, and
            // the jittered hot box must dirty at least one.
            EXPECT_GT(clean, 0u) << "step " << s;
            EXPECT_GT(written_treelets, 0u) << "step " << s;
        }
    }
}

TEST(SeriesDeltaTest, SteadyStepFilesReferenceKeyframes) {
    WrittenSeries& w = written();
    SeriesReader reader(w.manifest);
    const Metadata key_meta =
        Metadata::load(w.manifest.parent_path() / reader.series().timesteps[0].second);
    const Metadata steady_meta =
        Metadata::load(w.manifest.parent_path() / reader.series().timesteps[1].second);
    ASSERT_EQ(key_meta.leaves.size(), steady_meta.leaves.size());
    int delta_files = 0;
    int overridden = 0;
    for (std::size_t l = 0; l < steady_meta.leaves.size(); ++l) {
        const MetaLeaf& key_leaf = key_meta.leaves[l];
        const MetaLeaf& leaf = steady_meta.leaves[l];
        // Keyframe files are fully inline.
        EXPECT_TRUE(key_leaf.delta_bases.empty());
        BatFile key_file(w.manifest.parent_path() / key_leaf.file);
        EXPECT_TRUE(key_file.base_file_names().empty());
        if (leaf.file == key_leaf.file) {
            // Whole-leaf reuse: step 1's metadata points back at step 0's
            // file (the .batmeta back-reference).
            ++overridden;
            continue;
        }
        BatFile file(w.manifest.parent_path() / leaf.file);
        EXPECT_EQ(file.base_file_names(), leaf.delta_bases);
        if (!file.base_file_names().empty()) {
            ++delta_files;
            bool any_delta = false;
            for (std::size_t t = 0; t < file.header().num_treelets; ++t) {
                any_delta = any_delta || file.treelet_is_delta(t);
            }
            EXPECT_TRUE(any_delta) << leaf.file;
        }
    }
    // The hot box must leave most leaves untouched and dirty at least one.
    EXPECT_GT(overridden, 0);
    EXPECT_GT(delta_files, 0);
}

TEST(SeriesDeltaTest, DriftForcesReplanAndStaysCorrect) {
    testing::TempDir dir;
    const GridDecomp decomp = grid_decomp_3d(kRanks, kDomain);
    const ParticleSet small = make_uniform_particles(kDomain, 4'000, 2, 5);
    const ParticleSet big = make_uniform_particles(kDomain, 9'000, 2, 6);
    std::vector<WriteResult> step1(kRanks);
    std::filesystem::path manifest;
    std::mutex mutex;
    vmpi::Runtime::run(kRanks, [&](vmpi::Comm& comm) {
        const int r = comm.rank();
        SeriesWriter writer(series_config(dir.path(), "drift"));
        const auto rank0 = partition_particles(small, decomp);
        writer.write_timestep(comm, 0, rank0[static_cast<std::size_t>(r)],
                              decomp.rank_box(r));
        // >125% growth on every rank blows through the 30% replan threshold.
        const auto rank1 = partition_particles(big, decomp);
        const WriteResult wr = writer.write_timestep(
            comm, 1, rank1[static_cast<std::size_t>(r)], decomp.rank_box(r));
        const auto path = writer.finalize(comm);
        std::lock_guard<std::mutex> lock(mutex);
        step1[static_cast<std::size_t>(r)] = wr;
        if (r == 0) {
            manifest = path;
        }
    });
    for (int r = 0; r < kRanks; ++r) {
        EXPECT_FALSE(step1[static_cast<std::size_t>(r)].reused_plan);
        // A replan drops the per-leaf keys, so nothing is written by
        // reference either.
        EXPECT_EQ(step1[static_cast<std::size_t>(r)].delta_treelets_clean, 0u);
    }
    SeriesReader reader(manifest);
    Dataset ds = reader.open_timestep(1);
    EXPECT_EQ(testing::particle_keys(ds.collect(BatQuery{})),
              testing::particle_keys(big));
}

TEST(SeriesDeltaTest, DriftedReusedPlanWritesSameFilesAsPlanless) {
    // Successive Coal Boiler steps move particles across rank boundaries
    // and grow a rank by at most ~14% per step (under the 30% replan
    // threshold), so the reused plan's cached per-sender counts are stale
    // while the fresh tree still picks the same two leaves. Written as
    // keyframes (all treelets inline), each step's leaf files and metadata
    // must equal a planless write_particles of the same step byte for byte.
    testing::TempDir dir;
    constexpr int kBoilerRanks = 8;
    BoilerConfig boiler;
    boiler.particles_at_start = 5'000;
    boiler.particles_at_end = 45'000;
    const std::vector<int> steps{2101, 2201, 2301, 2401};
    const GridDecomp decomp = grid_decomp_3d(kBoilerRanks, boiler.domain);
    std::vector<std::vector<ParticleSet>> per_step;
    for (const int t : steps) {
        per_step.push_back(partition_particles(make_boiler_particles(boiler, t), decomp));
    }
    WriterConfig config;
    config.tree.target_file_size = 1 << 20;  // multi-rank leaves
    config.directory = dir.path();
    config.basename = "series";
    config.delta.keyframe_interval = 1;
    // [step][rank] results of the plan-carrying and the planless writes.
    std::vector<std::vector<WriteResult>> planned(
        steps.size(), std::vector<WriteResult>(kBoilerRanks));
    std::vector<std::vector<WriteResult>> planless = planned;
    vmpi::Runtime::run(kBoilerRanks, [&](vmpi::Comm& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        SeriesWriter writer(config);
        for (std::size_t s = 0; s < steps.size(); ++s) {
            planned[s][r] = writer.write_timestep(comm, steps[s], per_step[s][r],
                                                  decomp.rank_box(comm.rank()));
            WriterConfig one_shot = config;  // same file names, own directory
            one_shot.directory = dir.path() / "planless";
            one_shot.basename = "series_t" + std::to_string(steps[s]);
            planless[s][r] = write_particles(comm, per_step[s][r],
                                             decomp.rank_box(comm.rank()), one_shot);
        }
    });

    for (std::size_t s = 1; s < steps.size(); ++s) {
        SCOPED_TRACE("step " + std::to_string(steps[s]));
        bool drifted = false;
        std::map<int, int> senders_per_leaf;
        for (std::size_t r = 0; r < kBoilerRanks; ++r) {
            ASSERT_TRUE(planned[s][r].reused_plan) << "rank " << r;
            // Both writes chose the same leaves: same count, and every
            // rank's particles went to the same leaf id.
            ASSERT_EQ(planned[s][r].num_leaves, planless[s][r].num_leaves);
            ASSERT_EQ(planned[s][r].my_leaf, planless[s][r].my_leaf) << "rank " << r;
            drifted = drifted || per_step[s][r].count() != per_step[0][r].count();
            if (!per_step[s][r].empty()) {
                ++senders_per_leaf[planned[s][r].my_leaf];
            }
        }
        EXPECT_TRUE(drifted);
        EXPECT_TRUE(std::any_of(senders_per_leaf.begin(), senders_per_leaf.end(),
                                [](const auto& leaf) { return leaf.second > 1; }));
        const std::string name = "series_t" + std::to_string(steps[s]);
        std::vector<std::string> files{name + ".batmeta"};
        for (int leaf = 0; leaf < planned[s][0].num_leaves; ++leaf) {
            files.push_back(name + "_" + std::to_string(leaf) + ".bat");
        }
        for (const std::string& file : files) {
            ASSERT_TRUE(std::filesystem::exists(dir.path() / file)) << file;
            EXPECT_EQ(testing::file_bytes(dir.path() / file),
                      testing::file_bytes(dir.path() / "planless" / file))
                << file;
        }
    }
}

TEST(SeriesDeltaTest, HelpedReusedPlanWritesSameFilesAsPlanless) {
    // Three x slabs fixed at step 0, the last holding ~75% of a growing
    // Coal Boiler: rank 2's leaf is helped by ranks 0 and 1. Reused plans
    // carry the help plan's fractions, which apply to the drifted counts;
    // every keyframe step must equal a planless write byte for byte.
    testing::TempDir dir;
    constexpr int kRanks = 3;
    BoilerConfig boiler;
    boiler.particles_at_start = 60'000;
    boiler.particles_at_end = 120'000;
    const std::vector<int> steps{2101, 2301, 2501, 2701};
    const ParticleSet first = make_boiler_particles(boiler, steps.front());
    const std::vector<Box> boxes = testing::quantile_slabs(first, boiler.domain, {0.1, 0.25});
    std::vector<std::vector<ParticleSet>> per_step;
    for (const int t : steps) {
        per_step.push_back(testing::split_by_slabs(make_boiler_particles(boiler, t), boxes));
    }
    WriterConfig config;
    config.tree.target_file_size = 1 << 20;  // one leaf per rank
    config.directory = dir.path();
    config.basename = "series";
    config.delta.keyframe_interval = 1;
    auto& help = obs::MetricsRegistry::global().counter("write.help_particles");
    // Help counted by each step's planned write alone (before, after).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> helped(steps.size());
    std::vector<std::vector<WriteResult>> planned(steps.size(),
                                                  std::vector<WriteResult>(kRanks));
    vmpi::Runtime::run(kRanks, [&](vmpi::Comm& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        SeriesWriter writer(config);
        for (std::size_t s = 0; s < steps.size(); ++s) {
            comm.barrier();
            if (r == 0) {
                helped[s].first = help.value();
            }
            comm.barrier();
            planned[s][r] = writer.write_timestep(comm, steps[s], per_step[s][r], boxes[r]);
            comm.barrier();
            if (r == 0) {
                helped[s].second = help.value();
            }
            WriterConfig one_shot = config;  // same file names, own directory
            one_shot.directory = dir.path() / "planless";
            one_shot.basename = "series_t" + std::to_string(steps[s]);
            write_particles(comm, per_step[s][r], boxes[r], one_shot);
            comm.barrier();
        }
    });

    for (std::size_t s = 1; s < steps.size(); ++s) {
        SCOPED_TRACE("step " + std::to_string(steps[s]));
        for (std::size_t r = 0; r < kRanks; ++r) {
            ASSERT_TRUE(planned[s][r].reused_plan) << "rank " << r;
        }
        EXPECT_NE(per_step[s][2].count(), per_step[0][2].count());
        EXPECT_GT(helped[s].second, helped[s].first) << "the reused plan did not help";
        const std::string name = "series_t" + std::to_string(steps[s]);
        std::vector<std::string> files{name + ".batmeta"};
        for (int leaf = 0; leaf < planned[s][0].num_leaves; ++leaf) {
            files.push_back(name + "_" + std::to_string(leaf) + ".bat");
        }
        for (const std::string& file : files) {
            ASSERT_TRUE(std::filesystem::exists(dir.path() / file)) << file;
            EXPECT_EQ(testing::file_bytes(dir.path() / file),
                      testing::file_bytes(dir.path() / "planless" / file))
                << file;
        }
    }
}

/// Bytes inline treelet `t` of a BAT file spans on disk: from its block
/// offset to the next block, or to the end of the file rounded up to a page
/// (every block starts on one).
std::uint64_t block_span(const std::vector<std::byte>& bytes, std::uint32_t t) {
    FileHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    std::vector<TreeletDirEntry> dir(header.num_treelets);
    std::memcpy(dir.data(), bytes.data() + header.treelet_dir_offset,
                dir.size() * sizeof(TreeletDirEntry));
    const std::uint64_t start = dir.at(t).offset;
    std::uint64_t end = (header.file_size + kTreeletAlignment - 1) / kTreeletAlignment *
                        kTreeletAlignment;
    for (const TreeletDirEntry& entry : dir) {
        if (entry.base_file < 0 && entry.offset > start) {
            end = std::min(end, entry.offset);
        }
    }
    return end - start;
}

TEST(SeriesDeltaTest, BytesSavedCounterEqualsCleanTreeletBlocks) {
    testing::TempDir dir;
    const ParticleSet base = make_uniform_particles(kDomain, 12'000, 2, 91);
    WriterConfig config = series_config(dir.path(), "saved");
    config.tree.target_file_size = 64 << 20;  // one leaf file per step
    auto& saved_counter = obs::MetricsRegistry::global().counter("write.delta_bytes_saved");
    const std::uint64_t saved_before = saved_counter.value();
    WriteResult step1;
    vmpi::Runtime::run(1, [&](vmpi::Comm& comm) {
        SeriesWriter writer(config);
        writer.write_timestep(comm, 0, make_step(base, 0), kDomain);
        step1 = writer.write_timestep(comm, 1, make_step(base, 1), kDomain);
    });
    ASSERT_GT(step1.delta_treelets_clean, 0u);
    ASSERT_GT(step1.delta_treelets_written, 0u);  // so step 1 has its own file
    EXPECT_EQ(saved_counter.value() - saved_before, step1.delta_bytes_saved);

    const Metadata meta = Metadata::load(dir.path() / "saved_t1.batmeta");
    ASSERT_EQ(meta.leaves.size(), 1u);
    const auto delta_path = dir.path() / meta.leaves[0].file;
    const std::vector<std::byte> delta_bytes = read_file(delta_path);
    FileHeader header;
    std::memcpy(&header, delta_bytes.data(), sizeof(header));
    std::vector<TreeletDirEntry> entries(header.num_treelets);
    std::memcpy(entries.data(), delta_bytes.data() + header.treelet_dir_offset,
                entries.size() * sizeof(TreeletDirEntry));
    const BatFile delta_file(delta_path);
    std::uint64_t expected = 0;
    std::uint64_t clean = 0;
    for (const TreeletDirEntry& entry : entries) {
        if (entry.base_file < 0) {
            continue;
        }
        const std::vector<std::byte> base_bytes = read_file(
            dir.path() / delta_file.base_file_names()[static_cast<std::size_t>(entry.base_file)]);
        expected += block_span(base_bytes, entry.base_treelet);
        ++clean;
    }
    EXPECT_EQ(clean, step1.delta_treelets_clean);
    EXPECT_EQ(step1.delta_bytes_saved, expected);
}

// ---- exactness of skipped treelets ---------------------------------------
// A delta build skips a treelet whose build input is unchanged, so its
// reference must point at bytes equal to a fresh build's (no false clean),
// and no treelet it writes inline may equal the previous step's (no missed
// clean). Bitmap IDs index each file's own dictionary, so treelets are
// compared with their bitmaps resolved.

/// Everything one treelet's block holds, bitmaps resolved.
struct TreeletContent {
    std::string nodes;  // TreeletNode bytes
    std::vector<std::uint32_t> bitmaps;
    std::vector<float> positions;
    std::vector<double> attrs;

    bool operator==(const TreeletContent&) const = default;
};

TreeletContent content_of(const BatFile& file, std::size_t t) {
    const BatFile::TreeletView view = file.treelet(t);
    TreeletContent c;
    c.nodes.assign(reinterpret_cast<const char*>(view.nodes.data()), view.nodes.size_bytes());
    for (std::size_t node = 0; node < view.nodes.size(); ++node) {
        for (std::size_t a = 0; a < file.num_attrs(); ++a) {
            c.bitmaps.push_back(file.treelet_bitmap(view, node, a));
        }
    }
    c.positions.assign(view.positions.begin(), view.positions.end());
    for (const std::span<const double> attr : view.attrs) {
        c.attrs.insert(c.attrs.end(), attr.begin(), attr.end());
    }
    return c;
}

/// The directory of a BAT file with the storage fields (offset, base
/// reference) cleared: what every file holding the same treelets agrees on.
std::vector<TreeletDirEntry> directory_facts(const std::filesystem::path& path) {
    const std::vector<std::byte> bytes = read_file(path);
    FileHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    std::vector<TreeletDirEntry> dir(header.num_treelets);
    std::memcpy(dir.data(), bytes.data() + header.treelet_dir_offset,
                dir.size() * sizeof(TreeletDirEntry));
    for (TreeletDirEntry& entry : dir) {
        entry.offset = 0;
        entry.base_file = -1;
        entry.base_treelet = 0;
    }
    return dir;
}

bool same_facts(const TreeletDirEntry& a, const TreeletDirEntry& b) {
    return std::memcmp(&a, &b, sizeof(TreeletDirEntry)) == 0;
}

/// A series written twice over the same steps: through SeriesWriter (delta
/// steps, keyframes every `keyframe_interval`) and as planless full
/// rewrites, each leaf of which is a fresh build of that step.
struct SeriesPair {
    testing::TempDir dir;
    std::vector<std::filesystem::path> delta_meta;  // per step
    std::vector<std::filesystem::path> full_meta;
    std::vector<std::vector<WriteResult>> results;  // [step][rank] (delta)
    std::vector<std::uint64_t> help_jobs;           // per delta step
};

std::unique_ptr<SeriesPair> write_series_pair(
    const std::vector<std::vector<ParticleSet>>& steps, const std::vector<Box>& boxes,
    WriterConfig config) {
    auto pair = std::make_unique<SeriesPair>();
    const std::size_t nsteps = steps.size();
    const int nranks = static_cast<int>(boxes.size());
    config.directory = pair->dir.path();
    config.basename = "delta";
    pair->delta_meta.resize(nsteps);
    pair->full_meta.resize(nsteps);
    pair->help_jobs.resize(nsteps);
    pair->results.assign(nsteps, std::vector<WriteResult>(static_cast<std::size_t>(nranks)));
    auto& jobs = obs::MetricsRegistry::global().counter("write.help_jobs");
    std::mutex mutex;
    vmpi::Runtime::run(nranks, [&](vmpi::Comm& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        SeriesWriter writer(config);
        for (std::size_t s = 0; s < nsteps; ++s) {
            comm.barrier();
            const std::uint64_t jobs_before = jobs.value();
            const WriteResult wr = writer.write_timestep(comm, static_cast<int>(s), steps[s][r],
                                                         boxes[r]);
            comm.barrier();
            if (r == 0) {
                pair->help_jobs[s] = jobs.value() - jobs_before;
            }
            WriterConfig full = config;
            full.basename = "full_t" + std::to_string(s);
            const WriteResult fw = write_particles(comm, steps[s][r], boxes[r], full);
            std::lock_guard<std::mutex> lock(mutex);
            pair->results[s][r] = wr;
            pair->delta_meta[s] = wr.metadata_path;
            pair->full_meta[s] = fw.metadata_path;
        }
    });
    return pair;
}

/// Step `s` of a slowly evolving series: the particles of a hot box around
/// the center of the bounds jittered (clamped to the box), and the lowest
/// particle lowered a little per step, so the leaf holding it sees its
/// lower z bound move while most of its treelets keep their bytes. From
/// step 2 on, one particle raises the top of attribute 0's range a hair:
/// its leaf's bin edges move at step 2, yet most bitmaps keep their bins.
ParticleSet evolving_step(const ParticleSet& base, int s) {
    ParticleSet global = base;
    const Box bounds = base.bounds();
    const Vec3 c = bounds.center();
    Box hot;
    for (int a = 0; a < 3; ++a) {
        const float half = 0.1f * (bounds.upper[a] - bounds.lower[a]);
        hot.lower[a] = c[a] - half;
        hot.upper[a] = c[a] + half;
    }
    std::size_t lowest = 0;
    for (std::size_t i = 0; i < global.count() && s > 0; ++i) {
        Vec3 p = global.position(i);
        if (p.z < global.position(lowest).z) {
            lowest = i;
        }
        if (!hot.contains(p)) {
            continue;
        }
        std::uint64_t h = splitmix64(static_cast<std::uint64_t>(s) << 32 | i);
        for (int a = 0; a < 3; ++a) {
            h = splitmix64(h);
            const float u = 2.0f * static_cast<float>(h >> 40) / static_cast<float>(1u << 24) - 1.0f;
            p[a] = std::clamp(p[a] + 0.04f * (hot.upper[a] - hot.lower[a]) * u, hot.lower[a],
                              hot.upper[a]);
        }
        global.set_position(i, p);
    }
    Vec3 p = global.position(lowest);
    p.z -= static_cast<float>(s) * 1e-5f * (bounds.upper.z - bounds.lower.z);
    global.set_position(lowest, p);
    if (s >= 2) {
        const auto [lo, hi] = base.attr_range(0);
        global.attr_mut(0)[0] = hi + 1e-6 * (hi - lo);
    }
    return global;
}

/// The oracles over every step and leaf of `pair` (keyframes
/// `keyframe_interval` apart), plus bit-exact reads of every step.
void expect_exact_deltas(const SeriesPair& pair, int keyframe_interval) {
    const std::filesystem::path dir = pair.dir.path();
    std::size_t refs = 0;
    std::size_t inline_compared = 0;
    std::size_t moved_bounds = 0;  // steps whose leaf moved and kept treelets
    std::size_t moved_edges = 0;
    for (std::size_t s = 0; s < pair.delta_meta.size(); ++s) {
        SCOPED_TRACE("step " + std::to_string(s));
        const Metadata delta = Metadata::load(pair.delta_meta[s]);
        const Metadata full = Metadata::load(pair.full_meta[s]);
        EXPECT_EQ(pair.results[s][0].reused_plan, s > 0);
        expect_bit_exact(Dataset(pair.delta_meta[s]).collect(BatQuery{}),
                         Dataset(pair.full_meta[s]).collect(BatQuery{}));
        ASSERT_EQ(delta.leaves.size(), full.leaves.size());
        const bool keyframe = static_cast<int>(s) % keyframe_interval == 0;
        for (std::size_t l = 0; l < delta.leaves.size(); ++l) {
            SCOPED_TRACE("leaf " + std::to_string(l));
            const std::filesystem::path dpath = dir / delta.leaves[l].file;
            const std::filesystem::path fpath = dir / full.leaves[l].file;
            const BatFile dfile(dpath);
            const BatFile ffile(fpath);
            ASSERT_EQ(dfile.num_treelets(), ffile.num_treelets());
            const std::vector<TreeletDirEntry> dfacts = directory_facts(dpath);
            const std::vector<TreeletDirEntry> ffacts = directory_facts(fpath);
            // (a) No false clean: every treelet, referenced or inline,
            // holds what a fresh build of this step holds.
            for (std::size_t t = 0; t < dfile.num_treelets(); ++t) {
                EXPECT_TRUE(same_facts(dfacts[t], ffacts[t])) << "treelet " << t;
                EXPECT_TRUE(content_of(dfile, t) == content_of(ffile, t)) << "treelet " << t;
                refs += dfile.treelet_is_delta(t) ? 1 : 0;
            }
            if (keyframe || s == 0) {
                EXPECT_TRUE(dfile.base_file_names().empty());
                continue;
            }
            const Metadata prev_meta = Metadata::load(pair.delta_meta[s - 1]);
            const std::filesystem::path ppath = dir / prev_meta.leaves[l].file;
            if (ppath == dpath) {
                continue;  // the whole leaf was unchanged
            }
            const BatFile prev(ppath);
            if (prev.num_treelets() != dfile.num_treelets()) {
                continue;
            }
            if (!dfile.base_file_names().empty()) {
                moved_bounds += prev.bounds() == dfile.bounds() ? 0 : 1;
                moved_edges += prev.attr_edges(0) == dfile.attr_edges(0) ? 0 : 1;
            }
            // (b) No missed clean: an inline treelet differs from the
            // previous step's.
            const std::vector<TreeletDirEntry> pfacts = directory_facts(ppath);
            for (std::size_t t = 0; t < dfile.num_treelets(); ++t) {
                if (dfile.treelet_is_delta(t)) {
                    continue;
                }
                ++inline_compared;
                EXPECT_FALSE(same_facts(dfacts[t], pfacts[t]) &&
                             content_of(dfile, t) == content_of(prev, t))
                    << "treelet " << t << " is written inline but did not change";
            }
        }
    }
    EXPECT_GT(refs, 0u);
    EXPECT_GT(inline_compared, 0u);
    EXPECT_GT(moved_bounds, 0u) << "no step moved a leaf's bounds while skipping treelets";
    EXPECT_GT(moved_edges, 0u) << "no step moved a leaf's bin edges while keeping treelets";
}

TEST(SeriesDeltaTest, HelpedBoilerSeriesSkipsExactlyTheUnchangedTreelets) {
    // Three x slabs, the last holding ~75% of a Coal Boiler: its leaf is
    // helped by ranks 0 and 1 on every step, delta steps included. Step 2
    // repeats step 1, so the heavy leaf has nothing to build and its
    // helpers get only the empty end-of-stream job.
    constexpr int kBoilerRanks = 3;
    constexpr int kInterval = 4;
    BoilerConfig boiler;
    boiler.particles_at_start = 60'000;
    boiler.particles_at_end = 60'000;
    const ParticleSet base = make_boiler_particles(boiler, 2501);
    const std::vector<Box> boxes = testing::quantile_slabs(base, boiler.domain, {0.1, 0.25});
    std::vector<std::vector<ParticleSet>> steps;
    for (const int s : {0, 1, 1, 2, 3, 4}) {
        steps.push_back(testing::split_by_slabs(evolving_step(base, s), boxes));
    }
    WriterConfig config;
    config.tree.target_file_size = 1 << 20;  // one leaf per rank
    config.delta.keyframe_interval = kInterval;
    auto& helped = obs::MetricsRegistry::global().counter("write.help_particles");
    const std::uint64_t helped_before = helped.value();
    const auto pair = write_series_pair(steps, boxes, config);
    EXPECT_GT(helped.value(), helped_before);
    expect_exact_deltas(*pair, kInterval);
    // The heavy leaf's aggregator writes the most treelets.
    std::size_t heavy = 0;
    for (std::size_t r = 1; r < kBoilerRanks; ++r) {
        if (pair->results[0][r].delta_treelets_written >
            pair->results[0][heavy].delta_treelets_written) {
            heavy = r;
        }
    }
    for (const std::size_t s : {1, 3, 5}) {
        EXPECT_GT(pair->results[s][heavy].delta_treelets_clean, 0u) << "step " << s;
        EXPECT_GT(pair->results[s][heavy].delta_treelets_written, 0u) << "step " << s;
        EXPECT_GT(pair->help_jobs[s], 0u) << "step " << s << ": the dirty work was not helped";
    }
    EXPECT_EQ(pair->help_jobs[2], 0u) << "an unchanged step shipped jobs";
    EXPECT_EQ(pair->results[2][heavy].leaves_unchanged, 1);
}

TEST(SeriesDeltaTest, DamBreakSeriesSkipsExactlyTheUnchangedTreelets) {
    constexpr int kDamRanks = 4;
    constexpr int kInterval = 3;
    DamBreakConfig dam;
    dam.num_particles = 40'000;
    const ParticleSet base = make_dambreak_particles(dam, 2000);
    const GridDecomp decomp = grid_decomp_2d(kDamRanks, dam.domain);
    std::vector<std::vector<ParticleSet>> steps;
    for (int s = 0; s < 6; ++s) {
        steps.push_back(partition_particles(evolving_step(base, s), decomp));
    }
    std::vector<Box> boxes;
    for (int r = 0; r < kDamRanks; ++r) {
        boxes.push_back(decomp.rank_box(r));
    }
    WriterConfig config;
    config.tree.target_file_size = 256 << 10;
    config.bat.target_treelet_particles = 1024;
    config.delta.keyframe_interval = kInterval;
    const auto pair = write_series_pair(steps, boxes, config);
    expect_exact_deltas(*pair, kInterval);
}

TEST(SeriesDeltaTest, SwappedTiesAreWrittenInline) {
    // Two particles at one position with different attributes trade rows
    // between steps. Their Morton codes tie, so only the stable order tells
    // them apart: their treelet's bytes change and it must not be skipped.
    ParticleSet base = make_uniform_particles(kDomain, 8'000, 2, 33);
    const Vec3 at{1.3f, 0.4f, 1.7f};
    const std::array<double, 2> first{1.0, 2.0};
    const std::array<double, 2> second{3.0, 4.0};
    base.push_back(at, first);
    base.push_back(at, second);
    ParticleSet swapped = base;
    const std::size_t n = swapped.count();
    for (std::size_t a = 0; a < swapped.num_attrs(); ++a) {
        std::swap(swapped.attr_mut(a)[n - 2], swapped.attr_mut(a)[n - 1]);
    }
    WriterConfig config = series_config("", "");
    config.tree.target_file_size = 64 << 20;  // one leaf
    const auto pair = write_series_pair({{base}, {swapped}}, {kDomain}, config);
    expect_bit_exact(Dataset(pair->delta_meta[1]).collect(BatQuery{}),
                     Dataset(pair->full_meta[1]).collect(BatQuery{}));
    const Metadata meta = Metadata::load(pair->delta_meta[1]);
    ASSERT_EQ(meta.leaves.size(), 1u);
    const BatFile file(pair->dir.path() / meta.leaves[0].file);
    std::size_t refs = 0;
    int holder = -1;
    for (std::size_t t = 0; t < file.num_treelets(); ++t) {
        refs += file.treelet_is_delta(t) ? 1 : 0;
        const BatFile::TreeletView view = file.treelet(t);
        for (std::uint32_t i = 0; i < view.num_points; ++i) {
            if (view.position(i) == at) {
                holder = static_cast<int>(t);
            }
        }
    }
    ASSERT_GE(holder, 0);
    EXPECT_FALSE(file.treelet_is_delta(static_cast<std::size_t>(holder)));
    EXPECT_EQ(pair->results[1][0].delta_treelets_written, 1u);
    EXPECT_EQ(refs + 1, file.num_treelets());
}

}  // namespace
}  // namespace bat
