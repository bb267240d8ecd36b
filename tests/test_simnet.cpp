// Tests for the discrete-event scheduler, the simulated network, and the gossip
// overlay: ordering, cancellation, latency models, topology builders, crash
// behaviour, dedup, and propagation telemetry.
#include <gtest/gtest.h>

#include <queue>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "net/gossip.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"

namespace {

using namespace dlt;
using namespace dlt::sim;
using namespace dlt::net;

// --- Scheduler ---------------------------------------------------------------------

TEST(Scheduler, RunsInTimeOrder) {
    Scheduler sched;
    std::vector<int> order;
    sched.schedule_at(3.0, [&] { order.push_back(3); });
    sched.schedule_at(1.0, [&] { order.push_back(1); });
    sched.schedule_at(2.0, [&] { order.push_back(2); });
    sched.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(sched.now(), 3.0);
}

TEST(Scheduler, FifoWithinSameTime) {
    Scheduler sched;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) sched.schedule_at(1.0, [&, i] { order.push_back(i); });
    sched.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, HandlersCanScheduleMore) {
    Scheduler sched;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 10) sched.schedule_after(1.0, chain);
    };
    sched.schedule_after(1.0, chain);
    sched.run();
    EXPECT_EQ(fired, 10);
    EXPECT_DOUBLE_EQ(sched.now(), 10.0);
}

TEST(Scheduler, CancelPreventsExecution) {
    Scheduler sched;
    bool ran = false;
    const EventId id = sched.schedule_at(1.0, [&] { ran = true; });
    EXPECT_TRUE(sched.cancel(id));
    EXPECT_FALSE(sched.cancel(id)); // second cancel is a no-op
    sched.run();
    EXPECT_FALSE(ran);
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
    Scheduler sched;
    int count = 0;
    for (int i = 1; i <= 10; ++i) sched.schedule_at(i, [&] { ++count; });
    const std::size_t processed = sched.run_until(5.5);
    EXPECT_EQ(processed, 5u);
    EXPECT_EQ(count, 5);
    EXPECT_DOUBLE_EQ(sched.now(), 5.5);
    sched.run();
    EXPECT_EQ(count, 10);
}

TEST(Scheduler, PastSchedulingRejected) {
    Scheduler sched;
    sched.schedule_at(5.0, [] {});
    sched.run();
    EXPECT_THROW(sched.schedule_at(1.0, [] {}), ContractViolation);
}

TEST(Scheduler, RunUntilFiresEventExactlyAtBoundary) {
    Scheduler sched;
    bool ran = false;
    sched.schedule_at(5.0, [&] { ran = true; });
    const std::size_t processed = sched.run_until(5.0);
    EXPECT_TRUE(ran); // t == boundary fires, not "strictly before"
    EXPECT_EQ(processed, 1u);
    EXPECT_DOUBLE_EQ(sched.now(), 5.0);
}

TEST(Scheduler, RunUntilAdvancesClockOnEmptyQueue) {
    Scheduler sched;
    EXPECT_EQ(sched.run_until(7.5), 0u);
    EXPECT_DOUBLE_EQ(sched.now(), 7.5);
    // And never moves it backwards.
    EXPECT_EQ(sched.run_until(3.0), 0u);
    EXPECT_DOUBLE_EQ(sched.now(), 7.5);
}

TEST(Scheduler, RunUntilSkipsCancelledHeapTopWithoutCounting) {
    Scheduler sched;
    int fired = 0;
    const EventId top = sched.schedule_at(1.0, [&] { ++fired; });
    sched.schedule_at(2.0, [&] { ++fired; });
    sched.schedule_at(3.0, [&] { ++fired; });
    ASSERT_TRUE(sched.cancel(top));
    // The cancelled entry sits at the heap top: it must be skipped silently,
    // not processed or counted.
    EXPECT_EQ(sched.run_until(2.5), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_DOUBLE_EQ(sched.now(), 2.5);
    // The 3.0 event survives past the boundary.
    EXPECT_EQ(sched.pending(), 1u);
    sched.run();
    EXPECT_EQ(fired, 2);
}

TEST(Scheduler, RunUntilIgnoresCancelledEventsBeyondBoundary) {
    Scheduler sched;
    int fired = 0;
    sched.schedule_at(1.0, [&] { ++fired; });
    const EventId late = sched.schedule_at(10.0, [&] { ++fired; });
    ASSERT_TRUE(sched.cancel(late));
    EXPECT_EQ(sched.run_until(5.0), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(sched.idle());
}

// --- Network -------------------------------------------------------------------------

struct Inbox {
    std::vector<Delivery> messages;
    auto handler() {
        return [this](const Delivery& d) { messages.push_back(d); };
    }
};

TEST(Network, DeliversWithLatency) {
    Scheduler sched;
    Network net(sched, Rng(1));
    Inbox a, b;
    const NodeId na = net.add_node(a.handler());
    const NodeId nb = net.add_node(b.handler());
    LinkParams link;
    link.latency_mean = 0.1;
    link.latency_jitter = 0;
    link.bandwidth_bps = 0; // no transfer delay
    net.connect(na, nb, link);

    net.send(na, nb, "ping", to_bytes("hello"));
    EXPECT_TRUE(b.messages.empty());
    sched.run();
    ASSERT_EQ(b.messages.size(), 1u);
    EXPECT_EQ(b.messages[0].from, na);
    EXPECT_EQ(b.messages[0].topic, "ping");
    EXPECT_DOUBLE_EQ(sched.now(), 0.1);
}

TEST(Network, BandwidthAddsTransferDelay) {
    Scheduler sched;
    Network net(sched, Rng(2));
    Inbox inbox;
    const NodeId a = net.add_node([](const Delivery&) {});
    const NodeId b = net.add_node(inbox.handler());
    LinkParams link;
    link.latency_mean = 0;
    link.latency_jitter = 0;
    link.bandwidth_bps = 8000; // 1000 bytes/sec
    net.connect(a, b, link);
    net.send(a, b, "data", Bytes(500, 0xAB));
    sched.run();
    EXPECT_DOUBLE_EQ(sched.now(), 0.5); // 500 bytes at 1000 B/s
}

TEST(Network, SendWithoutLinkThrows) {
    Scheduler sched;
    Network net(sched, Rng(3));
    const NodeId a = net.add_node([](const Delivery&) {});
    const NodeId b = net.add_node([](const Delivery&) {});
    EXPECT_THROW(net.send(a, b, "x", Bytes{}), ValidationError);
}

TEST(Network, CrashedNodeDropsMessages) {
    Scheduler sched;
    Network net(sched, Rng(4));
    Inbox inbox;
    const NodeId a = net.add_node([](const Delivery&) {});
    const NodeId b = net.add_node(inbox.handler());
    net.connect(a, b);
    net.set_crashed(b, true);
    net.send(a, b, "x", to_bytes("payload"));
    sched.run();
    EXPECT_TRUE(inbox.messages.empty());
    EXPECT_EQ(net.stats().messages_dropped, 1u);

    net.set_crashed(b, false);
    net.send(a, b, "x", to_bytes("payload"));
    sched.run();
    EXPECT_EQ(inbox.messages.size(), 1u);
}

TEST(Network, FullMeshConnectsEveryPair) {
    Scheduler sched;
    Network net(sched, Rng(5));
    for (int i = 0; i < 6; ++i) net.add_node([](const Delivery&) {});
    net.build_full_mesh();
    for (NodeId i = 0; i < 6; ++i)
        for (NodeId j = 0; j < 6; ++j)
            if (i != j) {
                EXPECT_TRUE(net.connected(i, j));
            }
}

TEST(Network, OverlayMeetsMinimumDegree) {
    Scheduler sched;
    Network net(sched, Rng(6));
    const std::size_t n = 30;
    for (std::size_t i = 0; i < n; ++i) net.add_node([](const Delivery&) {});
    net.build_unstructured_overlay(5);
    for (NodeId i = 0; i < n; ++i) EXPECT_GE(net.neighbors(i).size(), 2u);
}

TEST(Network, OverlayIsConnected) {
    Scheduler sched;
    Network net(sched, Rng(7));
    const std::size_t n = 40;
    for (std::size_t i = 0; i < n; ++i) net.add_node([](const Delivery&) {});
    net.build_unstructured_overlay(4);

    // BFS from node 0 must reach everyone (the ring guarantees it).
    std::vector<bool> seen(n, false);
    std::queue<NodeId> frontier;
    frontier.push(0);
    seen[0] = true;
    std::size_t reached = 1;
    while (!frontier.empty()) {
        const NodeId cur = frontier.front();
        frontier.pop();
        for (const NodeId next : net.neighbors(cur)) {
            if (!seen[next]) {
                seen[next] = true;
                ++reached;
                frontier.push(next);
            }
        }
    }
    EXPECT_EQ(reached, n);
}

TEST(Network, TrafficStatsAccumulate) {
    Scheduler sched;
    Network net(sched, Rng(8));
    const NodeId a = net.add_node([](const Delivery&) {});
    const NodeId b = net.add_node([](const Delivery&) {});
    net.connect(a, b);
    net.send(a, b, "x", Bytes(10, 0));
    net.send(b, a, "y", Bytes(20, 0));
    EXPECT_EQ(net.stats().messages_sent, 2u);
    EXPECT_EQ(net.stats().bytes_sent, 30u);
}

TEST(Network, DuplicateConnectKeepsFirstLinkParams) {
    Scheduler sched;
    Network net(sched, Rng(9));
    Inbox inbox;
    const NodeId a = net.add_node([](const Delivery&) {});
    const NodeId b = net.add_node(inbox.handler());
    LinkParams fast;
    fast.latency_mean = 0.1;
    fast.latency_jitter = 0;
    fast.bandwidth_bps = 0;
    net.connect(a, b, fast);

    LinkParams slow = fast;
    slow.latency_mean = 5.0;
    net.connect(a, b, slow); // ignored: the first link's parameters win

    // No parallel link appeared in the adjacency lists...
    EXPECT_EQ(net.neighbors(a).size(), 1u);
    EXPECT_EQ(net.neighbors(b).size(), 1u);
    // ...and delivery still runs at the first link's latency.
    net.send(a, b, "x", Bytes{});
    sched.run();
    ASSERT_EQ(inbox.messages.size(), 1u);
    EXPECT_DOUBLE_EQ(sched.now(), 0.1);
}

TEST(Network, CrashedSenderIsSilenced) {
    Scheduler sched;
    Network net(sched, Rng(10));
    Inbox inbox;
    const NodeId a = net.add_node([](const Delivery&) {});
    const NodeId b = net.add_node(inbox.handler());
    net.connect(a, b);
    net.set_crashed(a, true);
    net.send(a, b, "x", to_bytes("leak"));
    sched.run();
    // Fail-stop: the send is swallowed, not counted as network traffic.
    EXPECT_TRUE(inbox.messages.empty());
    EXPECT_EQ(net.stats().messages_sent, 0u);
    EXPECT_EQ(net.stats().bytes_sent, 0u);
    EXPECT_EQ(net.stats().messages_from_crashed, 1u);
}

TEST(Network, InFlightMessagesFromCrashingSenderAreCut) {
    Scheduler sched;
    Network net(sched, Rng(11));
    Inbox inbox;
    const NodeId a = net.add_node([](const Delivery&) {});
    const NodeId b = net.add_node(inbox.handler());
    net.connect(a, b);
    net.send(a, b, "x", to_bytes("in-flight"));
    net.set_crashed(a, true); // crash before the delivery event fires
    sched.run();
    EXPECT_TRUE(inbox.messages.empty());
    EXPECT_EQ(net.stats().messages_from_crashed, 1u);

    // After recovery the node speaks again.
    net.set_crashed(a, false);
    net.send(a, b, "x", to_bytes("alive"));
    sched.run();
    EXPECT_EQ(inbox.messages.size(), 1u);
}

// --- Fault injection -----------------------------------------------------------------

TEST(NetworkFaults, CertainLossDropsEveryMessage) {
    Scheduler sched;
    Network net(sched, Rng(20));
    Inbox inbox;
    const NodeId a = net.add_node([](const Delivery&) {});
    const NodeId b = net.add_node(inbox.handler());
    LinkParams lossy;
    lossy.loss = 1.0;
    net.connect(a, b, lossy);
    for (int i = 0; i < 5; ++i) net.send(a, b, "x", Bytes(8, 0));
    sched.run();
    EXPECT_TRUE(inbox.messages.empty());
    EXPECT_EQ(net.stats().messages_sent, 5u);
    EXPECT_EQ(net.stats().messages_lost, 5u);
}

TEST(NetworkFaults, GlobalLossAppliesToEveryLink) {
    Scheduler sched;
    Network net(sched, Rng(21));
    Inbox inbox;
    const NodeId a = net.add_node([](const Delivery&) {});
    const NodeId b = net.add_node(inbox.handler());
    net.connect(a, b); // default link: no per-link faults
    net.set_global_faults(FaultParams{.loss = 1.0, .duplicate = 0.0});
    net.send(a, b, "x", Bytes(8, 0));
    sched.run();
    EXPECT_TRUE(inbox.messages.empty());
    EXPECT_EQ(net.stats().messages_lost, 1u);

    net.set_global_faults(FaultParams{});
    net.send(a, b, "x", Bytes(8, 0));
    sched.run();
    EXPECT_EQ(inbox.messages.size(), 1u);
}

TEST(NetworkFaults, PartialLossDropsAboutTheConfiguredFraction) {
    Scheduler sched;
    Network net(sched, Rng(22));
    const NodeId a = net.add_node([](const Delivery&) {});
    const NodeId b = net.add_node([](const Delivery&) {});
    LinkParams lossy;
    lossy.loss = 0.3;
    net.connect(a, b, lossy);
    const int total = 2000;
    for (int i = 0; i < total; ++i) net.send(a, b, "x", Bytes(1, 0));
    sched.run();
    const double rate =
        static_cast<double>(net.stats().messages_lost) / total;
    EXPECT_NEAR(rate, 0.3, 0.05);
}

TEST(NetworkFaults, CertainDuplicationDeliversTwice) {
    Scheduler sched;
    Network net(sched, Rng(23));
    Inbox inbox;
    const NodeId a = net.add_node([](const Delivery&) {});
    const NodeId b = net.add_node(inbox.handler());
    LinkParams dup;
    dup.duplicate = 1.0;
    net.connect(a, b, dup);
    net.send(a, b, "x", to_bytes("twin"));
    sched.run();
    EXPECT_EQ(inbox.messages.size(), 2u);
    EXPECT_EQ(net.stats().messages_sent, 1u);
    EXPECT_EQ(net.stats().messages_duplicated, 1u);
}

TEST(NetworkFaults, PartitionCutsCrossGroupTraffic) {
    Scheduler sched;
    Network net(sched, Rng(24));
    std::vector<Inbox> inboxes(4);
    for (auto& inbox : inboxes) net.add_node(inbox.handler());
    net.build_full_mesh();
    net.partition("split", {{0, 1}, {2, 3}});
    EXPECT_TRUE(net.partitioned(0, 2));
    EXPECT_TRUE(net.partitioned(1, 3));
    EXPECT_FALSE(net.partitioned(0, 1));
    EXPECT_FALSE(net.partitioned(2, 3));

    net.send(0, 1, "same-side", Bytes(1, 0));
    net.send(0, 2, "cross", Bytes(1, 0));
    net.send(3, 1, "cross", Bytes(1, 0));
    sched.run();
    EXPECT_EQ(inboxes[1].messages.size(), 1u);
    EXPECT_TRUE(inboxes[2].messages.empty());
    EXPECT_EQ(net.stats().messages_partitioned, 2u);

    net.heal("split");
    EXPECT_FALSE(net.partitioned(0, 2));
    net.send(0, 2, "healed", Bytes(1, 0));
    sched.run();
    EXPECT_EQ(inboxes[2].messages.size(), 1u);
}

TEST(NetworkFaults, PartitionCutsInFlightMessagesAtDelivery) {
    Scheduler sched;
    Network net(sched, Rng(25));
    Inbox inbox;
    const NodeId a = net.add_node([](const Delivery&) {});
    const NodeId b = net.add_node(inbox.handler());
    net.connect(a, b);
    net.send(a, b, "x", Bytes(1, 0)); // in flight when the cut lands
    net.partition("split", {{a}, {b}});
    sched.run();
    EXPECT_TRUE(inbox.messages.empty());
    EXPECT_EQ(net.stats().messages_partitioned, 1u);
}

TEST(NetworkFaults, NodesOutsideEveryGroupAreUnaffected) {
    Scheduler sched;
    Network net(sched, Rng(26));
    std::vector<Inbox> inboxes(3);
    for (auto& inbox : inboxes) net.add_node(inbox.handler());
    net.build_full_mesh();
    net.partition("split", {{0}, {1}}); // node 2 is in no group
    net.send(0, 2, "x", Bytes(1, 0));
    net.send(1, 2, "x", Bytes(1, 0));
    sched.run();
    EXPECT_EQ(inboxes[2].messages.size(), 2u);
}

TEST(NetworkFaults, FaultPlanCutsAndHealsOnSchedule) {
    Scheduler sched;
    Network net(sched, Rng(27));
    Inbox inbox;
    const NodeId a = net.add_node([](const Delivery&) {});
    const NodeId b = net.add_node(inbox.handler());
    LinkParams instant;
    instant.latency_mean = 0.001;
    instant.latency_jitter = 0;
    net.connect(a, b, instant);

    FaultPlan plan;
    plan.cut(10.0, "split", {{a}, {b}}).heal(20.0, "split");
    net.apply(plan);

    auto send_at = [&](SimTime t) {
        sched.schedule_at(t, [&net, a, b] { net.send(a, b, "x", Bytes(1, 0)); });
    };
    send_at(5.0);  // before the cut: delivered
    send_at(15.0); // during: dropped
    send_at(25.0); // after heal: delivered
    sched.run();
    EXPECT_EQ(inbox.messages.size(), 2u);
    EXPECT_EQ(net.stats().messages_partitioned, 1u);
}

TEST(NetworkFaults, ChurnParksAndRestoresLinks) {
    Scheduler sched;
    Network net(sched, Rng(28));
    std::vector<Inbox> inboxes(3);
    for (auto& inbox : inboxes) net.add_node(inbox.handler());
    net.build_full_mesh();

    net.leave(2);
    EXPECT_TRUE(net.is_departed(2));
    EXPECT_TRUE(net.neighbors(2).empty());
    EXPECT_FALSE(net.connected(0, 2));
    EXPECT_TRUE(net.connected(0, 1));
    EXPECT_THROW(net.send(0, 2, "x", Bytes{}), ValidationError);

    net.rejoin(2);
    EXPECT_FALSE(net.is_departed(2));
    EXPECT_EQ(net.neighbors(2).size(), 2u);
    net.send(0, 2, "back", Bytes(1, 0));
    sched.run();
    EXPECT_EQ(inboxes[2].messages.size(), 1u);
}

TEST(NetworkFaults, InFlightDeliveryToDepartedNodeIsDropped) {
    Scheduler sched;
    Network net(sched, Rng(29));
    Inbox inbox;
    const NodeId a = net.add_node([](const Delivery&) {});
    const NodeId b = net.add_node(inbox.handler());
    net.connect(a, b);
    net.send(a, b, "x", Bytes(1, 0));
    net.leave(b); // departs while the message is in flight
    sched.run();
    EXPECT_TRUE(inbox.messages.empty());
    EXPECT_EQ(net.stats().messages_dropped, 1u);
}

TEST(NetworkFaults, SimultaneousChurnRestoresLinksAfterBothRejoin) {
    Scheduler sched;
    Network net(sched, Rng(30));
    for (int i = 0; i < 3; ++i) net.add_node([](const Delivery&) {});
    net.build_full_mesh();
    net.leave(0);
    net.leave(1);
    net.rejoin(0); // 1 still away: only the 0-2 link returns
    EXPECT_TRUE(net.connected(0, 2));
    EXPECT_FALSE(net.connected(0, 1));
    net.rejoin(1); // now 1 re-links to both
    EXPECT_TRUE(net.connected(0, 1));
    EXPECT_TRUE(net.connected(1, 2));
    EXPECT_EQ(net.neighbors(0).size(), 2u);
}

// --- Gossip ------------------------------------------------------------------------

struct GossipHarness {
    Scheduler sched;
    Network net;
    std::vector<int> deliveries;
    std::vector<std::pair<NodeId, NodeId>> arrivals; // (node, relayed-from)
    std::unique_ptr<GossipOverlay> overlay;

    GossipHarness(std::size_t n, GossipParams params, std::uint64_t seed = 42)
        : net(sched, Rng(seed)), deliveries(n, 0) {
        overlay = std::make_unique<GossipOverlay>(
            net, n, params,
            [this](NodeId node, NodeId from, const std::string&, ByteView) {
                ++deliveries[node];
                arrivals.emplace_back(node, from);
            });
    }
};

TEST(Gossip, FloodReachesAllNodes) {
    GossipHarness h(25, GossipParams{.fanout = 0});
    h.net.build_unstructured_overlay(4);
    const Hash256 id = h.overlay->broadcast(0, "block", to_bytes("payload"));
    h.sched.run();
    EXPECT_DOUBLE_EQ(h.overlay->delivery_ratio(id), 1.0);
    for (const int count : h.deliveries) EXPECT_EQ(count, 1); // exactly-once
}

TEST(Gossip, FanoutThreeStillReachesMostNodes) {
    GossipHarness h(50, GossipParams{.fanout = 3});
    h.net.build_unstructured_overlay(6);
    const Hash256 id = h.overlay->broadcast(0, "tx", to_bytes("t"));
    h.sched.run();
    EXPECT_GT(h.overlay->delivery_ratio(id), 0.9);
}

TEST(Gossip, DistinctBroadcastsOfSamePayloadAreDistinct) {
    GossipHarness h(10, GossipParams{});
    h.net.build_full_mesh();
    const Hash256 id1 = h.overlay->broadcast(0, "tx", to_bytes("same"));
    h.sched.run();
    const Hash256 id2 = h.overlay->broadcast(1, "tx", to_bytes("same"));
    h.sched.run();
    EXPECT_NE(id1, id2);
    for (const int count : h.deliveries) EXPECT_EQ(count, 2);
}

TEST(Gossip, PropagationTimeGrowsSlowlyWithSize) {
    auto median_time = [](std::size_t n) {
        GossipHarness h(n, GossipParams{}, 7);
        h.net.build_unstructured_overlay(6);
        const Hash256 id = h.overlay->broadcast(0, "b", to_bytes("x"));
        h.sched.run();
        const auto t = h.overlay->time_to_quantile(id, 0.5);
        return t.value_or(1e9);
    };
    const double small = median_time(16);
    const double large = median_time(256);
    // 16x nodes should cost far less than 16x time (log-ish growth).
    EXPECT_LT(large, small * 6);
}

TEST(Gossip, RecordTracksArrivalTimes) {
    GossipHarness h(5, GossipParams{});
    h.net.build_full_mesh();
    const Hash256 id = h.overlay->broadcast(2, "b", to_bytes("x"));
    h.sched.run();
    const PropagationRecord* rec = h.overlay->record(id);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->delivered, 5u);
    EXPECT_DOUBLE_EQ(rec->arrival.at(2), rec->origin_time); // origin is instant
}

TEST(Gossip, RelayNeverEchoesToImmediateSender) {
    // Line topology 0-1-2: a flood from 0 needs exactly two transmissions
    // (0->1, 1->2). The old echo bug also sent 1->0 and 2->1.
    GossipHarness h(3, GossipParams{.fanout = 0});
    LinkParams link;
    link.latency_jitter = 0;
    h.net.connect(0, 1, link);
    h.net.connect(1, 2, link);
    h.overlay->broadcast(0, "b", to_bytes("x"));
    h.sched.run();
    EXPECT_EQ(h.net.stats().messages_sent, 2u);
    EXPECT_EQ(h.deliveries, (std::vector<int>{1, 1, 1}));
}

TEST(Gossip, FullMeshFloodMessageCountExcludesEchoes) {
    // Full mesh of n: the origin sends n-1 frames, every other node relays to
    // its n-2 non-sender neighbors. With echoes the relays would be n-1 each.
    const std::size_t n = 6;
    GossipHarness h(n, GossipParams{.fanout = 0});
    h.net.build_full_mesh();
    h.overlay->broadcast(0, "b", to_bytes("x"));
    h.sched.run();
    EXPECT_EQ(h.net.stats().messages_sent, (n - 1) + (n - 1) * (n - 2));
    for (const int count : h.deliveries) EXPECT_EQ(count, 1);
}

TEST(Gossip, FanoutSamplingExcludesTheSender) {
    // Node 1 has exactly two neighbors: the sender (0) and node 2. With
    // fanout 1 its single slot must go to node 2, never back to 0.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        GossipHarness h(3, GossipParams{.fanout = 1}, seed);
        h.net.connect(0, 1);
        h.net.connect(1, 2);
        h.net.connect(1, 0); // duplicate, ignored
        const Hash256 id = h.overlay->broadcast(0, "b", to_bytes("x"));
        h.sched.run();
        EXPECT_DOUBLE_EQ(h.overlay->delivery_ratio(id), 1.0) << "seed " << seed;
    }
}

TEST(Gossip, HandlerReportsTheRelayingPeer) {
    GossipHarness h(3, GossipParams{});
    h.net.connect(0, 1);
    h.net.connect(1, 2);
    h.overlay->broadcast(0, "b", to_bytes("x"));
    h.sched.run();
    ASSERT_EQ(h.arrivals.size(), 3u);
    EXPECT_EQ(h.arrivals[0], (std::pair<NodeId, NodeId>{0, 0})); // origin: from==self
    EXPECT_EQ(h.arrivals[1], (std::pair<NodeId, NodeId>{1, 0}));
    EXPECT_EQ(h.arrivals[2], (std::pair<NodeId, NodeId>{2, 1}));
}

TEST(Gossip, DepartedNodeMissesBroadcastsUntilRejoin) {
    GossipHarness h(5, GossipParams{});
    h.net.build_full_mesh();
    h.net.leave(4);
    const Hash256 id = h.overlay->broadcast(0, "b", to_bytes("x"));
    h.sched.run();
    EXPECT_DOUBLE_EQ(h.overlay->delivery_ratio(id), 0.8); // 4 of 5
    EXPECT_EQ(h.deliveries[4], 0);

    h.net.rejoin(4);
    const Hash256 id2 = h.overlay->broadcast(0, "b", to_bytes("y"));
    h.sched.run();
    EXPECT_DOUBLE_EQ(h.overlay->delivery_ratio(id2), 1.0);
    EXPECT_EQ(h.deliveries[4], 1);
}

TEST(Gossip, PartitionConfinesBroadcastThenHealAllowsNewOnes) {
    GossipHarness h(6, GossipParams{});
    h.net.build_full_mesh();
    h.net.partition("split", {{0, 1, 2}, {3, 4, 5}});
    const Hash256 id = h.overlay->broadcast(0, "b", to_bytes("x"));
    h.sched.run();
    EXPECT_DOUBLE_EQ(h.overlay->delivery_ratio(id), 0.5);
    EXPECT_GT(h.net.stats().messages_partitioned, 0u);

    h.net.heal("split");
    const Hash256 id2 = h.overlay->broadcast(0, "b", to_bytes("y"));
    h.sched.run();
    EXPECT_DOUBLE_EQ(h.overlay->delivery_ratio(id2), 1.0);
}

TEST(Gossip, LossyOverlayStillMostlyDeliversViaRedundancy) {
    GossipHarness h(30, GossipParams{.fanout = 0}, 11);
    h.net.build_unstructured_overlay(6);
    h.net.set_global_faults(FaultParams{.loss = 0.2, .duplicate = 0.0});
    const Hash256 id = h.overlay->broadcast(0, "b", to_bytes("x"));
    h.sched.run();
    EXPECT_GT(h.overlay->delivery_ratio(id), 0.9); // flooding masks 20% loss
    EXPECT_GT(h.net.stats().messages_lost, 0u);
}

// Two identically-seeded runs with an active FaultPlan must produce
// byte-identical event traces (the determinism guarantee E22 rests on).
TEST(Gossip, FaultPlanRunsAreByteIdenticalUnderSameSeed) {
    const auto trace = [](std::uint64_t seed) {
        std::string log;
        Scheduler sched;
        Network net(sched, Rng(seed));
        GossipOverlay overlay(net, 8, GossipParams{.fanout = 2},
                              [&](NodeId node, NodeId from, const std::string& topic,
                                  ByteView) {
                                  char line[96];
                                  std::snprintf(line, sizeof line, "%.9f %u %u %s\n",
                                                sched.now(), node, from, topic.c_str());
                                  log += line;
                              });
        net.build_unstructured_overlay(4);
        net.set_global_faults(FaultParams{.loss = 0.1, .duplicate = 0.05});
        FaultPlan plan;
        plan.cut(0.05, "split", {{0, 1, 2, 3}, {4, 5, 6, 7}})
            .heal(0.2, "split")
            .leave(0.3, 6)
            .rejoin(0.4, 6)
            .crash(0.1, 5)
            .recover(0.25, 5);
        net.apply(plan);
        for (int i = 0; i < 6; ++i) {
            sched.schedule_at(i * 0.1, [&overlay, i] {
                overlay.broadcast(static_cast<NodeId>(i % 8), "b",
                                  Bytes(16, static_cast<std::uint8_t>(i)));
            });
        }
        sched.run();
        char stats[160];
        std::snprintf(stats, sizeof stats, "sent=%llu lost=%llu dup=%llu part=%llu\n",
                      static_cast<unsigned long long>(net.stats().messages_sent),
                      static_cast<unsigned long long>(net.stats().messages_lost),
                      static_cast<unsigned long long>(net.stats().messages_duplicated),
                      static_cast<unsigned long long>(net.stats().messages_partitioned));
        log += stats;
        return log;
    };
    const std::string a = trace(1234);
    const std::string b = trace(1234);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    // A different seed genuinely changes the trace (the test has teeth).
    EXPECT_NE(a, trace(4321));
}

TEST(Gossip, FaultPlanSameTimestampActionsRunInInsertionOrder) {
    // Pinned semantics (src/net/README.md): FaultPlan actions scheduled at
    // the same sim-time execute in plan *insertion order* — apply() schedules
    // them one by one and the Scheduler is FIFO at equal timestamps
    // (monotonic event ids break ties). E27's crash-during-reorg cells rely
    // on this: a heal and a recover landing on the same instant must take
    // effect in the order the plan author wrote them.
    const auto end_state = [](bool crash_first) {
        Scheduler sched;
        Network net(sched, Rng(7));
        for (int i = 0; i < 4; ++i) net.add_node([](const Delivery&) {});
        FaultPlan plan;
        if (crash_first)
            plan.crash(1.0, 3).recover(1.0, 3);
        else
            plan.recover(1.0, 3).crash(1.0, 3);
        // Same-instant partition churn on top: later same-time actions win.
        plan.cut(1.0, "blip", {{0, 1}, {2, 3}}).heal(1.0, "blip");
        net.apply(plan);
        sched.run();
        return net.is_crashed(3);
    };
    EXPECT_FALSE(end_state(true));  // crash then recover → alive
    EXPECT_TRUE(end_state(false));  // recover then crash → down
}

} // namespace
