// Tests for the virtual MPI runtime: point-to-point semantics, ordering,
// probes, collectives, and the nonblocking barrier the read pipeline
// depends on.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "vmpi/comm.hpp"

namespace bat::vmpi {
namespace {

Bytes make_payload(int value, std::size_t size = 8) {
    Bytes b(size);
    std::memcpy(b.data(), &value, sizeof(int));
    return b;
}

int payload_value(const Bytes& b) {
    int v = 0;
    std::memcpy(&v, b.data(), sizeof(int));
    return v;
}

class VmpiRanks : public ::testing::TestWithParam<int> {};

TEST_P(VmpiRanks, RingSendRecv) {
    const int n = GetParam();
    Runtime::run(n, [n](Comm& comm) {
        const int next = (comm.rank() + 1) % n;
        const int prev = (comm.rank() + n - 1) % n;
        comm.isend(next, 7, make_payload(comm.rank()));
        const Bytes got = comm.recv(prev, 7);
        EXPECT_EQ(payload_value(got), prev);
    });
}

TEST_P(VmpiRanks, GatherCollectsAllValues) {
    const int n = GetParam();
    Runtime::run(n, [n](Comm& comm) {
        const std::vector<int> all = comm.gather(comm.rank() * 10, 0);
        if (comm.rank() == 0) {
            ASSERT_EQ(all.size(), static_cast<std::size_t>(n));
            for (int r = 0; r < n; ++r) {
                EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 10);
            }
        } else {
            EXPECT_TRUE(all.empty());
        }
    });
}

TEST_P(VmpiRanks, GathervVariableSizes) {
    const int n = GetParam();
    Runtime::run(n, [n](Comm& comm) {
        Bytes mine(static_cast<std::size_t>(comm.rank()), std::byte{0xAB});
        const std::vector<Bytes> all = comm.gatherv(std::move(mine), 0);
        if (comm.rank() == 0) {
            ASSERT_EQ(all.size(), static_cast<std::size_t>(n));
            for (int r = 0; r < n; ++r) {
                EXPECT_EQ(all[static_cast<std::size_t>(r)].size(),
                          static_cast<std::size_t>(r));
            }
        }
    });
}

TEST_P(VmpiRanks, ScattervDeliversPerRankPayloads) {
    const int n = GetParam();
    Runtime::run(n, [n](Comm& comm) {
        std::vector<Bytes> payloads;
        if (comm.rank() == 0) {
            for (int r = 0; r < n; ++r) {
                payloads.push_back(make_payload(r * 3));
            }
        }
        const Bytes mine = comm.scatterv(std::move(payloads), 0);
        EXPECT_EQ(payload_value(mine), comm.rank() * 3);
    });
}

TEST_P(VmpiRanks, BcastReachesEveryRank) {
    const int n = GetParam();
    Runtime::run(n, [](Comm& comm) {
        Bytes payload;
        if (comm.rank() == 0) {
            payload = make_payload(4242);
        }
        const Bytes got = comm.bcast(std::move(payload), 0);
        EXPECT_EQ(payload_value(got), 4242);
    });
}

TEST_P(VmpiRanks, AllreduceSum) {
    const int n = GetParam();
    Runtime::run(n, [n](Comm& comm) {
        const int sum =
            comm.allreduce(comm.rank(), [](int a, int b) { return a + b; });
        EXPECT_EQ(sum, n * (n - 1) / 2);
    });
}

TEST_P(VmpiRanks, AllgathervEveryoneSeesEverything) {
    const int n = GetParam();
    Runtime::run(n, [n](Comm& comm) {
        const std::vector<Bytes> all = comm.allgatherv(make_payload(comm.rank() + 1));
        ASSERT_EQ(all.size(), static_cast<std::size_t>(n));
        for (int r = 0; r < n; ++r) {
            EXPECT_EQ(payload_value(all[static_cast<std::size_t>(r)]), r + 1);
        }
    });
}

TEST_P(VmpiRanks, AlltoallvExchangesPersonalizedData) {
    const int n = GetParam();
    Runtime::run(n, [n](Comm& comm) {
        std::vector<Bytes> outgoing;
        for (int r = 0; r < n; ++r) {
            outgoing.push_back(make_payload(comm.rank() * 100 + r));
        }
        const std::vector<Bytes> incoming = comm.alltoallv(std::move(outgoing));
        ASSERT_EQ(incoming.size(), static_cast<std::size_t>(n));
        for (int r = 0; r < n; ++r) {
            EXPECT_EQ(payload_value(incoming[static_cast<std::size_t>(r)]),
                      r * 100 + comm.rank());
        }
    });
}

TEST_P(VmpiRanks, BarrierSynchronizes) {
    const int n = GetParam();
    std::atomic<int> before{0};
    Runtime::run(n, [&before, n](Comm& comm) {
        before.fetch_add(1);
        comm.barrier();
        // After the barrier every rank must have incremented.
        EXPECT_EQ(before.load(), n);
    });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, VmpiRanks, ::testing::Values(1, 2, 3, 8, 16));

TEST(VmpiTest, FifoOrderPerChannel) {
    Runtime::run(2, [](Comm& comm) {
        if (comm.rank() == 0) {
            for (int i = 0; i < 50; ++i) {
                comm.isend(1, 3, make_payload(i));
            }
        } else {
            for (int i = 0; i < 50; ++i) {
                EXPECT_EQ(payload_value(comm.recv(0, 3)), i);
            }
        }
    });
}

TEST(VmpiTest, TagsSeparateStreams) {
    Runtime::run(2, [](Comm& comm) {
        if (comm.rank() == 0) {
            comm.isend(1, 1, make_payload(111));
            comm.isend(1, 2, make_payload(222));
        } else {
            // Receive in the opposite order of sending: tags must match.
            EXPECT_EQ(payload_value(comm.recv(0, 2)), 222);
            EXPECT_EQ(payload_value(comm.recv(0, 1)), 111);
        }
    });
}

TEST(VmpiTest, AnySourceReceives) {
    Runtime::run(4, [](Comm& comm) {
        if (comm.rank() != 0) {
            comm.isend(0, 9, make_payload(comm.rank()));
        } else {
            std::vector<bool> seen(4, false);
            for (int i = 0; i < 3; ++i) {
                int from = -1;
                const Bytes b = comm.recv(kAnySource, 9, &from);
                EXPECT_EQ(payload_value(b), from);
                EXPECT_FALSE(seen[static_cast<std::size_t>(from)]);
                seen[static_cast<std::size_t>(from)] = true;
            }
        }
    });
}

TEST(VmpiTest, IprobeSeesWithoutConsuming) {
    Runtime::run(2, [](Comm& comm) {
        if (comm.rank() == 0) {
            comm.isend(1, 5, make_payload(77, 24));
        } else {
            int from = -1;
            std::size_t bytes = 0;
            while (!comm.iprobe(kAnySource, 5, &from, &bytes)) {
            }
            EXPECT_EQ(from, 0);
            EXPECT_EQ(bytes, 24u);
            // Probe again: still there.
            EXPECT_TRUE(comm.iprobe(0, 5));
            EXPECT_EQ(payload_value(comm.recv(0, 5)), 77);
            EXPECT_FALSE(comm.iprobe(0, 5));
        }
    });
}

TEST(VmpiTest, IrecvCompletesWhenMessageArrives) {
    Runtime::run(2, [](Comm& comm) {
        if (comm.rank() == 1) {
            Bytes out;
            Request r = comm.irecv(0, 4, out);
            r.wait();
            EXPECT_EQ(payload_value(out), 31337);
        } else {
            comm.isend(1, 4, make_payload(31337));
        }
    });
}

TEST(VmpiTest, IbarrierDoesNotBlockServerLoop) {
    // Mirrors the read pipeline: rank 1 enters the ibarrier immediately but
    // must keep serving rank 0's request before the barrier completes.
    Runtime::run(2, [](Comm& comm) {
        if (comm.rank() == 0) {
            comm.isend(1, 11, make_payload(1));
            Bytes reply;
            Request rr = comm.irecv(1, 12, reply);
            Request barrier;
            bool entered = false;
            for (;;) {
                if (!entered && rr.test()) {
                    barrier = comm.ibarrier();
                    entered = true;
                }
                if (entered && barrier.test()) {
                    break;
                }
            }
            EXPECT_EQ(payload_value(reply), 2);
        } else {
            Request barrier = comm.ibarrier();  // enters early
            bool served = false;
            for (;;) {
                if (!served && comm.iprobe(kAnySource, 11)) {
                    comm.recv(0, 11);
                    comm.isend(0, 12, make_payload(2));
                    served = true;
                }
                if (barrier.test()) {
                    break;
                }
            }
            EXPECT_TRUE(served);
        }
    });
}

TEST(VmpiTest, RankExceptionPropagates) {
    EXPECT_THROW(Runtime::run(4,
                              [](Comm& comm) {
                                  if (comm.rank() == 2) {
                                      throw Error("rank 2 failed");
                                  }
                              }),
                 Error);
}

TEST(VmpiTest, RankFailureUnblocksWaitingRanks) {
    // Rank 2 throws before sending anything; the others are blocked on it
    // in a point-to-point recv, a barrier and a gatherv. run() must return
    // the original error instead of spinning forever, and a server loop
    // polling iprobe must stop too.
    for (int blocked_in = 0; blocked_in < 4; ++blocked_in) {
        SCOPED_TRACE("blocked in op " + std::to_string(blocked_in));
        std::atomic<int> peer_failures{0};
        try {
            Runtime::run(4, [&](Comm& comm) {
                if (comm.rank() == 2) {
                    throw Error("rank 2 failed on purpose");
                }
                try {
                    switch (blocked_in) {
                        case 0: comm.recv(2, 5); break;
                        case 1: comm.barrier(); break;
                        case 2: comm.gatherv(Bytes(8), 0); comm.barrier(); break;
                        default:
                            while (!comm.iprobe(2, 5)) {
                            }
                    }
                } catch (const PeerFailureError&) {
                    peer_failures.fetch_add(1);
                    throw;
                }
            });
            ADD_FAILURE() << "run() returned normally";
        } catch (const PeerFailureError& e) {
            ADD_FAILURE() << "run() rethrew a consequence: " << e.what();
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("failed on purpose"), std::string::npos);
        }
        EXPECT_GT(peer_failures.load(), 0);
    }
}

TEST(VmpiTest, SelfSendWorks) {
    Runtime::run(1, [](Comm& comm) {
        comm.isend(0, 1, make_payload(5));
        EXPECT_EQ(payload_value(comm.recv(0, 1)), 5);
    });
}

TEST(VmpiTest, TypedHelpersRoundTrip) {
    Runtime::run(2, [](Comm& comm) {
        struct Pod {
            double a;
            int b;
        };
        if (comm.rank() == 0) {
            comm.isend_value(1, 2, Pod{2.5, -3});
            const std::vector<float> xs{1.f, 2.f, 3.f};
            comm.isend_vector<float>(1, 3, xs);
        } else {
            const Pod p = comm.recv_value<Pod>(0, 2);
            EXPECT_DOUBLE_EQ(p.a, 2.5);
            EXPECT_EQ(p.b, -3);
            const std::vector<float> xs = comm.recv_vector<float>(0, 3);
            EXPECT_EQ(xs, (std::vector<float>{1.f, 2.f, 3.f}));
        }
    });
}

}  // namespace
}  // namespace bat::vmpi
