// The real-transport deployment mode (E29): wire framing fuzzed through
// truncation and corruption, the socket transport's delivery / reconnect /
// backpressure behaviour, sim-vs-socket delivery equivalence, replicas
// converging over the sim backend, the PBFT engine inside core::Replica
// against Byzantine peers, a crashed primary, message loss and real sockets,
// the engine's commit and acceptance rules driven message by message, the
// dlt-node daemon's graceful SIGTERM path observed from the outside (clean
// exit, zero-replay reopen), and its RPC port served on the transport loop
// against concurrent, non-reading and slow-loris clients.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <map>
#include <set>
#include <thread>

#include "app/cluster.hpp"
#include "common/rng.hpp"
#include "core/node_daemon.hpp"
#include "core/persistent_node.hpp"
#include "core/replica.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"
#include "ledger/amount.hpp"
#include "ledger/validation.hpp"
#include "net/transport/frame.hpp"
#include "net/transport/sim_transport.hpp"
#include "net/transport/tcp_transport.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"

using namespace dlt;
using namespace dlt::net::transport;

namespace {

struct TempDir {
    std::filesystem::path path;
    explicit TempDir(const std::string& tag) {
        path = std::filesystem::temp_directory_path() / ("dlt-test-transport-" + tag);
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir() {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

std::uint64_t counter_value(const std::string& name) {
    return obs::MetricsRegistry::global().counter(name).value();
}

/// Spin until `pred` holds or `timeout_s` elapses; returns the final verdict.
bool eventually(double timeout_s, const std::function<bool()>& pred) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(static_cast<int>(timeout_s * 1000));
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred()) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
}

} // namespace

// --- Frame codec -------------------------------------------------------------

TEST(FrameCodec, HelloRoundTrip) {
    const Bytes framed = encode_hello_frame(42);
    FrameDecoder dec;
    dec.feed(ByteView(framed));
    const auto frame = dec.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->kind, FrameKind::kHello);
    Reader r{ByteView(frame->payload)};
    const Hello hello = Hello::decode(r);
    EXPECT_EQ(hello.magic, kProtocolMagic);
    EXPECT_EQ(hello.version, kProtocolVersion);
    EXPECT_EQ(hello.node_id, 42u);
    EXPECT_FALSE(dec.next().has_value());
    EXPECT_EQ(dec.buffered(), 0u);
}

TEST(FrameCodec, MessageRoundTrip) {
    const Bytes body = {1, 2, 3, 255, 0, 7};
    const Bytes framed = encode_message_frame("blk", ByteView(body));
    FrameDecoder dec;
    dec.feed(ByteView(framed));
    const auto frame = dec.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->kind, FrameKind::kMessage);
    const WireMessage msg = decode_message_payload(ByteView(frame->payload));
    EXPECT_EQ(msg.topic, "blk");
    EXPECT_EQ(msg.body, body);
}

TEST(FrameCodec, PartialReadResumes) {
    const Bytes framed = encode_message_frame("topic", ByteView(Bytes(100, 0xAB)));
    FrameDecoder dec;
    // One byte at a time: the frame must appear exactly once, at the end.
    for (std::size_t i = 0; i + 1 < framed.size(); ++i) {
        dec.feed(ByteView(framed.data() + i, 1));
        EXPECT_FALSE(dec.next().has_value()) << "frame surfaced early at " << i;
    }
    dec.feed(ByteView(framed.data() + framed.size() - 1, 1));
    const auto frame = dec.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(decode_message_payload(ByteView(frame->payload)).body, Bytes(100, 0xAB));
}

TEST(FrameCodec, SeveralFramesInOneFeed) {
    Bytes stream;
    for (int i = 0; i < 5; ++i) {
        const Bytes f = encode_message_frame("t" + std::to_string(i),
                                             ByteView(Bytes(i + 1, std::uint8_t(i))));
        stream.insert(stream.end(), f.begin(), f.end());
    }
    FrameDecoder dec;
    dec.feed(ByteView(stream));
    for (int i = 0; i < 5; ++i) {
        const auto frame = dec.next();
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ(decode_message_payload(ByteView(frame->payload)).topic,
                  "t" + std::to_string(i));
    }
    EXPECT_FALSE(dec.next().has_value());
}

TEST(FrameCodec, OversizedLengthRejectedBeforeBuffering) {
    FrameLimits limits;
    limits.max_frame_bytes = 1024;
    // Header claims a frame far above the limit; the decoder must throw on
    // the 8-byte header alone, without waiting for (or allocating) the body.
    Writer w;
    w.u32(1u << 20); // length
    w.u32(0);        // crc (never reached)
    FrameDecoder dec(limits);
    dec.feed(ByteView(w.data()));
    EXPECT_THROW(dec.next(), DecodeError);
}

TEST(FrameCodec, ZeroLengthRejected) {
    Writer w;
    w.u32(0);
    w.u32(0);
    FrameDecoder dec;
    dec.feed(ByteView(w.data()));
    EXPECT_THROW(dec.next(), DecodeError);
}

TEST(FrameCodec, CorruptedPayloadFailsCrc) {
    Bytes framed = encode_message_frame("x", ByteView(Bytes(32, 0x55)));
    framed[framed.size() / 2] ^= 0x01;
    FrameDecoder dec;
    dec.feed(ByteView(framed));
    EXPECT_THROW(dec.next(), DecodeError);
}

TEST(FrameCodec, UnknownKindRejected) {
    Bytes framed = encode_message_frame("x", ByteView());
    // Byte 8 is the kind; flipping it breaks the CRC too, so rewrite the
    // frame via encode_frame's own CRC by crafting at the payload level.
    const Bytes inner = {0xEE};
    Bytes forged = encode_frame(FrameKind::kMessage, ByteView(inner));
    // Splice kind=7 in and recompute nothing: kind is covered by the CRC, so
    // the decoder reports *a* DecodeError either way — both paths must throw.
    forged[8] = 7;
    FrameDecoder dec;
    dec.feed(ByteView(forged));
    EXPECT_THROW(dec.next(), DecodeError);
}

TEST(FrameCodec, BadHelloMagicRejected) {
    Writer w;
    w.u32(0xDEADBEEF);
    w.u16(kProtocolVersion);
    w.u32(1);
    Reader r{ByteView(w.data())};
    EXPECT_THROW(Hello::decode(r), DecodeError);
}

// Truncate a valid multi-frame stream at every offset: the decoder must
// produce a strict prefix of the original frames and never throw or misparse.
TEST(FrameCodec, TruncationFuzz) {
    std::vector<Bytes> frames;
    Bytes stream;
    Rng rng(0xE29);
    for (int i = 0; i < 4; ++i) {
        Bytes body(static_cast<std::size_t>(rng.uniform(64)) + 1, 0);
        for (auto& b : body) b = static_cast<std::uint8_t>(rng.uniform(256));
        const Bytes f = encode_message_frame("f" + std::to_string(i), ByteView(body));
        frames.push_back(f);
        stream.insert(stream.end(), f.begin(), f.end());
    }
    for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
        FrameDecoder dec;
        dec.feed(ByteView(stream.data(), cut));
        std::size_t decoded = 0;
        while (true) {
            const auto frame = dec.next();
            if (!frame) break;
            ASSERT_LT(decoded, frames.size());
            EXPECT_EQ(encode_frame(frame->kind, ByteView(frame->payload)),
                      frames[decoded]);
            ++decoded;
        }
        // Exactly the frames whose bytes fit entirely below the cut.
        std::size_t expected = 0, consumed = 0;
        while (expected < frames.size() &&
               consumed + frames[expected].size() <= cut)
            consumed += frames[expected++].size();
        EXPECT_EQ(decoded, expected) << "cut at " << cut;
    }
}

// Flip one byte anywhere in the stream: every decoded frame must be
// byte-identical to an original; everything else must surface as DecodeError
// or a stall — never a crash, never a fabricated frame.
TEST(FrameCodec, CorruptionFuzz) {
    Bytes stream;
    std::vector<Bytes> frames;
    for (int i = 0; i < 3; ++i) {
        const Bytes f =
            encode_message_frame("t" + std::to_string(i), ByteView(Bytes(24, std::uint8_t(i))));
        frames.push_back(f);
        stream.insert(stream.end(), f.begin(), f.end());
    }
    Rng rng(0x51E9);
    for (int iter = 0; iter < 500; ++iter) {
        Bytes corrupted = stream;
        const std::size_t at = rng.index(corrupted.size());
        corrupted[at] ^= static_cast<std::uint8_t>(rng.uniform(255) + 1);
        FrameDecoder dec;
        dec.feed(ByteView(corrupted));
        try {
            std::size_t decoded = 0;
            while (const auto frame = dec.next()) {
                const Bytes reframed =
                    encode_frame(frame->kind, ByteView(frame->payload));
                bool known = false;
                for (const auto& f : frames) known = known || reframed == f;
                EXPECT_TRUE(known) << "fabricated frame, corrupt byte " << at;
                ++decoded;
            }
            EXPECT_LE(decoded, frames.size());
        } catch (const DecodeError&) {
            // Expected for most corruptions (CRC, length, kind).
        }
    }
}

// --- TcpTransport ------------------------------------------------------------

namespace {

TcpTransportConfig tcp_config(std::uint32_t id, std::vector<TcpPeer> peers) {
    TcpTransportConfig config;
    config.local_id = id;
    config.peers = std::move(peers);
    return config;
}

} // namespace

TEST(TcpTransport, PairExchangeTimersAndPost) {
    TcpTransport t0(tcp_config(0, {{1, "127.0.0.1", 0}}));
    TcpTransport t1(tcp_config(1, {{0, "127.0.0.1", t0.listen_port()}}));
    EXPECT_EQ(t0.local_id(), 0u);
    EXPECT_EQ(t1.peer_ids(), std::vector<PeerId>{0});

    std::atomic<int> got0{0}, got1{0};
    std::atomic<bool> body_ok{true};
    t0.set_handler([&](PeerId from, const std::string& topic, ByteView payload) {
        body_ok = body_ok && from == 1 && topic == "ping" && payload.size() == 3;
        ++got0;
    });
    t1.set_handler([&](PeerId from, const std::string& topic, ByteView) {
        body_ok = body_ok && from == 0 && topic == "pong";
        ++got1;
    });
    t0.start();
    t1.start();
    ASSERT_TRUE(eventually(5.0, [&] {
        return t0.connected_peers() == 1 && t1.connected_peers() == 1;
    }));

    const Bytes three = {9, 9, 9};
    for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(t1.send(0, "ping", ByteView(three)));
        t0.broadcast("pong", ByteView());
    }
    ASSERT_TRUE(eventually(5.0, [&] { return got0 == 10 && got1 == 10; }));
    EXPECT_TRUE(body_ok);

    // Timers: one fires, one is cancelled, post() runs promptly, and the
    // transport clock advances monotonically.
    std::atomic<int> fired{0};
    t0.post([&] { ++fired; });
    t0.schedule_after(0.01, [&] { ++fired; });
    const TimerId cancelled = t0.schedule_after(60.0, [&] { fired += 100; });
    EXPECT_TRUE(t0.cancel_timer(cancelled));
    EXPECT_FALSE(t0.cancel_timer(cancelled));
    ASSERT_TRUE(eventually(5.0, [&] { return fired == 2; }));
    const double a = t0.now();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_GT(t0.now(), a);

    EXPECT_GT(counter_value("net_tcp_bytes_sent_total"), 0u);
    EXPECT_GT(counter_value("net_tcp_frames_received_total"), 0u);
}

TEST(TcpTransport, ReconnectAfterAcceptorRestart) {
    const std::uint64_t reconnects_before = counter_value("net_tcp_reconnects_total");
    auto t0 = std::make_unique<TcpTransport>(tcp_config(0, {{1, "127.0.0.1", 0}}));
    const std::uint16_t port0 = t0->listen_port();
    TcpTransport t1(tcp_config(1, {{0, "127.0.0.1", port0}}));
    std::atomic<int> got{0};
    t1.set_handler([&](PeerId, const std::string&, ByteView) { ++got; });
    t0->set_handler([](PeerId, const std::string&, ByteView) {});
    t0->start();
    t1.start();
    ASSERT_TRUE(eventually(5.0, [&] { return t1.connected_peers() == 1; }));

    // Kill the acceptor; the dialer must fall back to its retry schedule and
    // re-establish once a new process-equivalent binds the same port.
    t0.reset();
    ASSERT_TRUE(eventually(5.0, [&] { return t1.connected_peers() == 0; }));

    auto config0 = tcp_config(0, {{1, "127.0.0.1", 0}});
    config0.listen_port = port0;
    t0 = std::make_unique<TcpTransport>(config0);
    std::atomic<int> after{0};
    t0->set_handler([&](PeerId, const std::string&, ByteView) { ++after; });
    t0->start();
    ASSERT_TRUE(eventually(10.0, [&] { return t1.connected_peers() == 1; }));
    EXPECT_GT(counter_value("net_tcp_reconnects_total"), reconnects_before);

    EXPECT_TRUE(t1.send(0, "after", ByteView()));
    ASSERT_TRUE(eventually(5.0, [&] { return after >= 1; }));
}

TEST(TcpTransport, BackpressureDropsWhenPeerUnreachable) {
    const std::uint64_t drops_before = counter_value("net_tcp_send_drops_total");
    // Peer 0 does not exist: everything queues against the reconnect loop.
    auto config = tcp_config(1, {{0, "127.0.0.1", 1}}); // port 1: nothing there
    config.max_queue_bytes_per_peer = 4096;
    TcpTransport t1(config);
    t1.start();
    const Bytes chunk(1024, 0xCC);
    int accepted = 0, refused = 0;
    for (int i = 0; i < 64; ++i) {
        if (t1.send(0, "bulk", ByteView(chunk)))
            ++accepted;
        else
            ++refused;
    }
    EXPECT_GT(accepted, 0);
    EXPECT_GT(refused, 0);
    EXPECT_GT(counter_value("net_tcp_send_drops_total"), drops_before);
    EXPECT_LE(accepted, 5); // ~4 KB cap over ~1 KB frames
}

// --- Sim vs socket equivalence (the E29 contract) ----------------------------

// The same broadcast sequence, delivered over the deterministic sim backend
// and over a 3-node loopback TCP mesh, must leave every node with the same
// chained digest of (topic, payload) in arrival order — per-sender FIFO is
// the delivery contract protocol code relies on.
TEST(TransportEquivalence, BroadcastSequenceSameDigestsSimAndTcp) {
    constexpr int kMessages = 40;
    const auto fold = [](Hash256& digest, const std::string& topic, ByteView body) {
        Writer w;
        w.fixed(digest);
        w.str(topic);
        w.bytes(body);
        digest = crypto::sha256(ByteView(w.data()));
    };
    std::vector<Bytes> payloads;
    Rng rng(7);
    for (int i = 0; i < kMessages; ++i) {
        Bytes p(static_cast<std::size_t>(rng.uniform(48)) + 1, 0);
        for (auto& b : p) b = static_cast<std::uint8_t>(rng.uniform(256));
        payloads.push_back(std::move(p));
    }

    // Sim half.
    std::vector<Hash256> sim_digests(3);
    {
        sim::Scheduler scheduler;
        net::Network network(scheduler, Rng(1));
        SimTransportHub hub(network, 3);
        // TCP is per-connection FIFO; give the sim links the same property
        // (zero jitter) so arrival order is comparable across backends.
        net::LinkParams fifo;
        fifo.latency_jitter = 0.0;
        network.build_full_mesh(fifo);
        for (std::uint32_t id = 1; id < 3; ++id)
            hub.endpoint(id).set_handler(
                [&, id](PeerId, const std::string& topic, ByteView body) {
                    fold(sim_digests[id], topic, body);
                });
        // Space the sends in virtual time: with fixed latency, arrival order
        // is then emission order (TCP gets this for free from the stream).
        for (int i = 0; i < kMessages; ++i)
            scheduler.schedule_after(0.01 * static_cast<double>(i), [&, i] {
                hub.endpoint(0).broadcast("seq" + std::to_string(i % 3),
                                          ByteView(payloads[i]));
            });
        scheduler.run_until(60.0);
    }

    // Socket half.
    std::vector<Hash256> tcp_digests(3);
    {
        TcpTransport t0(tcp_config(0, {{1, "127.0.0.1", 0}, {2, "127.0.0.1", 0}}));
        TcpTransport t1(tcp_config(1, {{0, "127.0.0.1", t0.listen_port()},
                                       {2, "127.0.0.1", 0}}));
        TcpTransport t2(tcp_config(2, {{0, "127.0.0.1", t0.listen_port()},
                                       {1, "127.0.0.1", t1.listen_port()}}));
        std::atomic<int> received{0};
        t1.set_handler([&](PeerId, const std::string& topic, ByteView body) {
            fold(tcp_digests[1], topic, body);
            ++received;
        });
        t2.set_handler([&](PeerId, const std::string& topic, ByteView body) {
            fold(tcp_digests[2], topic, body);
            ++received;
        });
        t0.set_handler([](PeerId, const std::string&, ByteView) {});
        t0.start();
        t1.start();
        t2.start();
        ASSERT_TRUE(eventually(5.0, [&] {
            return t0.connected_peers() == 2 && t1.connected_peers() == 2 &&
                   t2.connected_peers() == 2;
        }));
        for (int i = 0; i < kMessages; ++i)
            t0.broadcast("seq" + std::to_string(i % 3), ByteView(payloads[i]));
        ASSERT_TRUE(eventually(10.0, [&] { return received == 2 * kMessages; }));
        t0.shutdown();
        t1.shutdown();
        t2.shutdown();
    }

    EXPECT_EQ(sim_digests[1], sim_digests[2]);
    EXPECT_EQ(sim_digests[1], tcp_digests[1]);
    EXPECT_EQ(sim_digests[1], tcp_digests[2]);
    EXPECT_NE(sim_digests[1], Hash256{}); // something actually arrived
}

// --- Replicas over the sim backend -------------------------------------------

namespace {

ledger::Transaction record_tx(std::uint64_t sender, std::uint64_t nonce) {
    ledger::Transaction tx;
    tx.kind = ledger::TxKind::kRecord;
    tx.sender_pubkey.assign(8, 0);
    for (std::size_t i = 0; i < 8; ++i)
        tx.sender_pubkey[i] = static_cast<std::uint8_t>((sender >> (8 * i)) & 0xFF);
    tx.nonce = nonce;
    tx.data = Bytes(48, static_cast<std::uint8_t>(nonce));
    tx.declared_fee = 100;
    return tx;
}

} // namespace

TEST(ReplicaSim, NakamotoConvergesOverSimTransport) {
    TempDir dirs("replica-nakamoto");
    sim::Scheduler scheduler;
    net::Network network(scheduler, Rng(3));
    SimTransportHub hub(network, 4);
    network.build_full_mesh();

    std::vector<std::unique_ptr<core::Replica>> replicas;
    for (std::uint32_t id = 0; id < 4; ++id) {
        core::ReplicaConfig config;
        config.engine = core::ReplicaEngine::kNakamoto;
        config.node_count = 4;
        config.block_interval = 1.0;
        config.data_dir = dirs.path / ("n" + std::to_string(id));
        replicas.push_back(
            std::make_unique<core::Replica>(hub.endpoint(id), config));
    }
    for (auto& r : replicas) r->start();
    for (std::uint64_t i = 0; i < 20; ++i)
        scheduler.schedule_after(0.1 * static_cast<double>(i), [&, i] {
            replicas[i % 4]->submit_transaction(record_tx(i, 0));
        });
    scheduler.run_until(30.0);
    for (auto& r : replicas) r->stop();
    scheduler.run_until(31.0);

    EXPECT_GT(replicas[0]->height(), 0u);
    for (std::size_t i = 1; i < replicas.size(); ++i) {
        EXPECT_EQ(replicas[i]->tip(), replicas[0]->tip());
        EXPECT_EQ(replicas[i]->confirmed_txs(), replicas[0]->confirmed_txs());
    }
    EXPECT_EQ(replicas[0]->confirmed_txs(), 20u);
    EXPECT_FALSE(replicas[0]->confirmation_latencies().empty());
}

TEST(ReplicaSim, NakamotoRefusesAnOverpaidCoinbase) {
    // Node 0 is a raw endpoint that floods a five-block chain whose coinbases
    // pay 1,000 times the subsidy. The three replicas must taint it and mine
    // their own chain, on which every coinbase pays the subsidy alone.
    TempDir dirs("replica-nakamoto-overpaid");
    sim::Scheduler scheduler;
    net::Network network(scheduler, Rng(13));
    SimTransportHub hub(network, 4);
    network.build_full_mesh();
    hub.endpoint(0).set_handler([](PeerId, const std::string&, ByteView) {});

    std::vector<std::unique_ptr<core::Replica>> replicas;
    for (std::uint32_t id = 1; id < 4; ++id) {
        core::ReplicaConfig config;
        config.engine = core::ReplicaEngine::kNakamoto;
        config.node_count = 4;
        config.block_interval = 1.0;
        config.data_dir = dirs.path / ("n" + std::to_string(id));
        replicas.push_back(std::make_unique<core::Replica>(hub.endpoint(id), config));
    }
    for (auto& r : replicas) r->start();

    const crypto::Address thief = crypto::PrivateKey::from_seed("byzantine").address();
    std::set<Hash256> overpaid;
    ledger::Block parent = ledger::make_genesis("e29", 0x207fffff);
    for (std::uint64_t height = 1; height <= 5; ++height) {
        ledger::Block block;
        block.header.prev_hash = parent.hash();
        block.header.height = height;
        block.header.bits = 0x207fffff;
        block.txs.push_back(
            ledger::make_coinbase(thief, 1000 * ledger::block_subsidy(height), height));
        block.header.merkle_root = block.compute_merkle_root();
        hub.endpoint(0).broadcast("blk", ByteView(encode_to_bytes(block)));
        overpaid.insert(block.hash());
        parent = block;
    }
    scheduler.run_until(20.0);
    for (auto& r : replicas) r->stop();
    scheduler.run_until(21.0);

    for (const auto& r : replicas) {
        ASSERT_GT(r->height(), 0u);
        EXPECT_EQ(r->node().utxo().total_value(),
                  static_cast<ledger::Amount>(r->height()) * ledger::block_subsidy(1));
        for (const Hash256& hash : r->node().chain().path_from_genesis(r->tip()))
            EXPECT_FALSE(overpaid.contains(hash));
    }
}

TEST(ReplicaSim, NakamotoConvergesUnderLossAndRestart) {
    // Four replicas at 10% link loss. Replica 3 is destroyed at t = 10 s and
    // rebuilt on its data dir at t = 25 s; it must catch up, and every
    // transaction must end up exactly once on every replica's chain.
    TempDir dirs("replica-nakamoto-loss");
    sim::Scheduler scheduler;
    net::Network network(scheduler, Rng(17));
    SimTransportHub hub(network, 4);
    net::LinkParams lossy;
    lossy.loss = 0.1;
    network.build_full_mesh(lossy);

    std::vector<std::unique_ptr<core::Replica>> replicas(4);
    const auto boot = [&](std::uint32_t id) {
        core::ReplicaConfig config;
        config.engine = core::ReplicaEngine::kNakamoto;
        config.node_count = 4;
        config.block_interval = 1.0;
        config.data_dir = dirs.path / ("n" + std::to_string(id));
        replicas[id] = std::make_unique<core::Replica>(hub.endpoint(id), config);
        replicas[id]->start();
    };
    for (std::uint32_t id = 0; id < 4; ++id) boot(id);
    std::vector<Hash256> submitted;
    for (std::uint64_t i = 0; i < 40; ++i) {
        submitted.push_back(record_tx(i, 3).txid());
        scheduler.schedule_after(0.5 * static_cast<double>(i), [&, i] {
            replicas[i % 3]->submit_transaction(record_tx(i, 3));
        });
    }
    scheduler.run_until(10.0);
    network.set_crashed(3, true);
    hub.endpoint(3).set_handler([](PeerId, const std::string&, ByteView) {});
    replicas[3].reset();
    scheduler.run_until(25.0);
    network.set_crashed(3, false);
    boot(3);
    scheduler.run_until(60.0);
    for (auto& r : replicas) r->stop(); // mining stops; blocks in flight land
    scheduler.run_until(62.0);

    std::sort(submitted.begin(), submitted.end());
    for (const auto& r : replicas) {
        EXPECT_EQ(r->tip(), replicas[0]->tip());
        std::vector<Hash256> on_chain;
        for (const Hash256& hash : r->node().chain().path_from_genesis(r->tip()))
            for (const auto& tx : r->node().chain().find(hash)->block.txs)
                if (!tx.is_coinbase()) on_chain.push_back(tx.txid());
        std::sort(on_chain.begin(), on_chain.end());
        EXPECT_EQ(on_chain, submitted);
        EXPECT_EQ(r->confirmed_txs(), submitted.size());
    }
}

TEST(ReplicaSim, PbftConvergesOverSimTransport) {
    TempDir dirs("replica-pbft");
    sim::Scheduler scheduler;
    net::Network network(scheduler, Rng(5));
    SimTransportHub hub(network, 4);
    network.build_full_mesh();

    std::vector<std::unique_ptr<core::Replica>> replicas;
    for (std::uint32_t id = 0; id < 4; ++id) {
        core::ReplicaConfig config;
        config.engine = core::ReplicaEngine::kPbft;
        config.node_count = 4;
        config.block_interval = 0.5;
        config.data_dir = dirs.path / ("n" + std::to_string(id));
        replicas.push_back(
            std::make_unique<core::Replica>(hub.endpoint(id), config));
    }
    for (auto& r : replicas) r->start();
    for (std::uint64_t i = 0; i < 15; ++i)
        scheduler.schedule_after(0.2 * static_cast<double>(i), [&, i] {
            replicas[i % 4]->submit_transaction(record_tx(i, 1));
        });
    scheduler.run_until(20.0);
    for (auto& r : replicas) r->stop();
    scheduler.run_until(21.0);

    EXPECT_GT(replicas[0]->height(), 0u);
    for (std::size_t i = 1; i < replicas.size(); ++i) {
        EXPECT_EQ(replicas[i]->tip(), replicas[0]->tip());
        EXPECT_EQ(replicas[i]->height(), replicas[0]->height());
    }
    EXPECT_EQ(replicas[0]->confirmed_txs(), 15u);
}

TEST(ReplicaSim, NakamotoFloodsEachTransactionOverEveryLink) {
    // A random overlay reaches every peer only by flooding, so a Nakamoto
    // replica relays what it admits to every peer but its sender: with no
    // block mined, (n - 1)^2 = 9 "tx" frames per transaction on 4 replicas.
    std::uint64_t tx_frames = 0;
    TempDir dirs("replica-nakamoto-flood");
    sim::Scheduler scheduler;
    net::Network network(scheduler, Rng(23));
    SimTransportHub hub(network, 4);
    network.build_full_mesh();
    hub.set_send_filter([&tx_frames](PeerId, PeerId, const std::string& topic) {
        tx_frames += topic == "tx";
        return true;
    });
    std::vector<std::unique_ptr<core::Replica>> replicas;
    for (std::uint32_t id = 0; id < 4; ++id) {
        core::ReplicaConfig config;
        config.engine = core::ReplicaEngine::kNakamoto;
        config.node_count = 4;
        config.data_dir = dirs.path / ("n" + std::to_string(id));
        replicas.push_back(std::make_unique<core::Replica>(hub.endpoint(id), config));
    }
    constexpr std::uint64_t kTxs = 8;
    for (std::uint64_t i = 0; i < kTxs; ++i)
        ASSERT_TRUE(replicas[i % 4]->submit_transaction(record_tx(i, 2)));
    scheduler.run_until(5.0);
    for (const auto& r : replicas) EXPECT_EQ(r->mempool_size(), kTxs);
    EXPECT_EQ(tx_frames, 9 * kTxs);
}

// --- The PBFT engine inside Replica ------------------------------------------

namespace {

using consensus::PbftEngine;

void ignore_messages(PeerId, const std::string&, ByteView) {}

/// Four PBFT replica slots on one simulated full mesh. A slot without a
/// Replica is a raw endpoint the test drives by hand (a Byzantine peer).
struct PbftReplicaSim {
    TempDir dirs;
    sim::Scheduler scheduler;
    net::Network network;
    SimTransportHub hub;
    std::vector<std::unique_ptr<core::Replica>> replicas;
    double interval = 0.5; // block_interval of replicas booted from now on

    PbftReplicaSim(const std::string& tag, std::uint64_t seed,
                   net::LinkParams link = {})
        : dirs(tag), network(scheduler, Rng(seed)), hub(network, 4), replicas(4) {
        network.build_full_mesh(link);
        for (std::uint32_t id = 0; id < 4; ++id)
            hub.endpoint(id).set_handler(ignore_messages);
    }

    void boot(std::uint32_t id) {
        core::ReplicaConfig config;
        config.engine = core::ReplicaEngine::kPbft;
        config.node_count = 4;
        config.block_interval = interval;
        config.data_dir = dirs.path / ("n" + std::to_string(id));
        replicas[id] = std::make_unique<core::Replica>(hub.endpoint(id), config);
        replicas[id]->start();
    }

    /// Fail-stop: the replica is destroyed and nothing reaches its endpoint
    /// until restart() rebuilds it on the same data dir.
    void crash(std::uint32_t id) {
        network.set_crashed(id, true);
        replicas[id]->stop();
        replicas[id].reset();
        hub.endpoint(id).set_handler(ignore_messages);
    }
    void restart(std::uint32_t id) {
        network.set_crashed(id, false);
        boot(id);
    }

    void run(double seconds) { scheduler.run_until(scheduler.now() + seconds); }

    /// Submit `count` fresh transactions 0.1 s apart, round-robin over `to`.
    void submit(std::uint64_t first, std::uint64_t count,
                std::vector<std::uint32_t> to) {
        for (std::uint64_t i = 0; i < count; ++i)
            scheduler.schedule_after(0.1 * static_cast<double>(i), [this, i, first, to] {
                replicas[to[i % to.size()]]->submit_transaction(record_tx(first + i, 7));
            });
    }

    /// Every replica in `ids` holds the same tip and has confirmed `txs`.
    ::testing::AssertionResult agree(const std::vector<std::uint32_t>& ids,
                                     std::uint64_t txs) const {
        const core::Replica& ref = *replicas[ids.front()];
        for (const std::uint32_t id : ids) {
            const core::Replica& r = *replicas[id];
            if (r.tip() != ref.tip())
                return ::testing::AssertionFailure()
                       << "replica " << id << " at height " << r.height()
                       << ", replica " << ids.front() << " at " << ref.height();
            if (r.confirmed_txs() != txs)
                return ::testing::AssertionFailure() << "replica " << id << " confirmed "
                                                     << r.confirmed_txs() << " of " << txs;
        }
        return ::testing::AssertionSuccess();
    }
};

/// A valid block at height 1 on the replicas' genesis; `nonce` tells two apart.
ledger::Block height_one_block(std::uint64_t nonce) {
    ledger::Block block;
    block.header.prev_hash = ledger::make_genesis("e29", 0x207fffff).hash();
    block.header.height = 1;
    block.header.bits = 0x207fffff;
    block.header.nonce = nonce;
    block.txs.push_back(ledger::make_coinbase(
        crypto::PrivateKey::from_seed("byzantine").address(), ledger::block_subsidy(1), 1));
    block.header.merkle_root = block.compute_merkle_root();
    return block;
}

Bytes pre_prepare_of(const ledger::Block& block) {
    return PbftEngine::pre_prepare_message(0, 1, {encode_to_bytes(block)});
}

/// The first block on a replica's chain.
Hash256 first_block(core::Replica& r) {
    return r.node().chain().ancestor(r.tip(), r.height() - 1);
}

} // namespace

TEST(ReplicaSim, NakamotoIgnoresABodyItsHeaderDoesNotCommitTo) {
    // Node 0 is a raw endpoint. Before block B it floods two bodies under B's
    // header: one whose coinbase overpays (its Merkle root differs), and one
    // that repeats B's last record (same root: an odd level pairs its last
    // hash with itself), which would even connect. Neither may be indexed,
    // or tainted, under B's hash.
    TempDir dirs("replica-nakamoto-forged-body");
    sim::Scheduler scheduler;
    net::Network network(scheduler, Rng(19));
    SimTransportHub hub(network, 4);
    network.build_full_mesh();
    hub.endpoint(0).set_handler([](PeerId, const std::string&, ByteView) {});
    std::vector<std::unique_ptr<core::Replica>> replicas;
    for (std::uint32_t id = 1; id < 4; ++id) {
        core::ReplicaConfig config;
        config.engine = core::ReplicaEngine::kNakamoto;
        config.block_interval = 1.0;
        config.data_dir = dirs.path / ("n" + std::to_string(id));
        replicas.push_back(std::make_unique<core::Replica>(hub.endpoint(id), config));
    }
    ledger::Block block = height_one_block(5);
    block.txs.push_back(record_tx(1, 1));
    block.txs.push_back(record_tx(2, 1));
    block.header.merkle_root = block.compute_merkle_root();
    block.header.invalidate_hash_cache();
    ledger::Block overpaid = block;
    overpaid.txs.front().outputs.front().value *= 1000;
    overpaid.txs.front().invalidate_txid_cache();
    ledger::Block repeated = block;
    repeated.txs.push_back(block.txs.back());
    ASSERT_EQ(repeated.compute_merkle_root(), block.header.merkle_root);
    for (const ledger::Block* b : {&overpaid, &repeated, &block})
        hub.endpoint(0).broadcast("blk", ByteView(encode_to_bytes(*b)));
    scheduler.run_until(1.0);

    for (const auto& r : replicas) {
        const auto* entry = r->node().chain().find(block.hash());
        ASSERT_NE(entry, nullptr);
        EXPECT_EQ(entry->block, block);
        EXPECT_FALSE(entry->invalid);
        EXPECT_EQ(r->tip(), block.hash()); // nothing mined: no replica started
        EXPECT_EQ(r->confirmed_txs(), 2u);
    }
}

TEST(ReplicaPbft, EquivocatingPrimaryCannotSplitReplicas) {
    PbftReplicaSim sim("pbft-equivocate", 11);
    for (std::uint32_t id = 1; id < 4; ++id) sim.boot(id);
    const std::uint64_t views_before = counter_value("pbft_view_changes_total");

    // Node 0, the primary of view 0, proposes two blocks for sequence 1: one
    // to replica 1, another to replicas 2 and 3.
    const ledger::Block a = height_one_block(1);
    const ledger::Block b = height_one_block(2);
    ASSERT_NE(a.hash(), b.hash());
    Transport& byzantine = sim.hub.endpoint(0);
    byzantine.send(1, "preprepare", ByteView(pre_prepare_of(a)));
    byzantine.send(2, "preprepare", ByteView(pre_prepare_of(b)));
    byzantine.send(3, "preprepare", ByteView(pre_prepare_of(b)));
    sim.submit(0, 9, {1, 2, 3});
    sim.run(40.0);

    // Neither block gathered a quorum; after the view change replica 1
    // proposes, and all three hold one chain with every transaction.
    EXPECT_TRUE(sim.agree({1, 2, 3}, 9));
    EXPECT_GE(counter_value("pbft_view_changes_total") - views_before, 3u);
    for (std::uint32_t id = 1; id < 4; ++id) {
        core::Replica& r = *sim.replicas[id];
        ASSERT_GE(r.height(), 1u);
        EXPECT_NE(first_block(r), a.hash()) << "replica " << id;
        EXPECT_NE(first_block(r), b.hash()) << "replica " << id;
    }
}

TEST(ReplicaPbft, PrimaryCannotCommitABlockTheReplicasCannotConnect) {
    // Node 0, the primary of view 0, pre-prepares a batch at sequence 1 that
    // is not one valid block on the replicas' tip, and votes PREPARE and
    // COMMIT for it. The replicas must refuse it, so it never commits, and
    // confirm everything after the view change.
    const ledger::Block valid = height_one_block(4);
    std::set<Hash256> refused{valid.hash()}; // blocks that must never commit
    const auto edited = [&](const std::function<void(ledger::Block&)>& edit) {
        ledger::Block block = valid;
        edit(block);
        block.header.merkle_root = block.compute_merkle_root();
        block.header.invalidate_hash_cache();
        refused.insert(block.hash());
        return std::vector<Bytes>{encode_to_bytes(block)};
    };
    const crypto::Address miner = crypto::PrivateKey::from_seed("byzantine").address();
    const std::vector<std::pair<std::string, std::vector<Bytes>>> junk{
        {"undecodable", {Bytes{0xde, 0xad}}},
        {"two-blocks", {encode_to_bytes(valid), encode_to_bytes(valid)}},
        {"wrong-height", edited([](ledger::Block& b) { b.header.height = 2; })},
        {"wrong-parent", edited([&](ledger::Block& b) { b.header.prev_hash = valid.hash(); })},
        {"overpaid-coinbase", edited([&](ledger::Block& b) {
             b.txs[0] = ledger::make_coinbase(miner, ledger::block_subsidy(1) + 1, 1);
         })},
        {"unknown-input", edited([&](ledger::Block& b) {
             ledger::Transaction spend;
             spend.inputs.push_back({ledger::OutPoint{valid.hash(), 0}, {}, {}});
             spend.outputs.push_back({1, miner});
             b.txs.push_back(spend);
         })},
    };
    for (const auto& [name, batch] : junk) {
        SCOPED_TRACE(name);
        PbftReplicaSim sim("pbft-junk-" + name, 29);
        for (std::uint32_t id = 1; id < 4; ++id) sim.boot(id);
        Transport& byzantine = sim.hub.endpoint(0);
        const Bytes vote =
            PbftEngine::vote_message(0, 1, PbftEngine::batch_digest(batch), 0);
        byzantine.broadcast("preprepare", ByteView(PbftEngine::pre_prepare_message(0, 1, batch)));
        byzantine.broadcast("prepare", ByteView(vote));
        byzantine.broadcast("commit", ByteView(vote));
        sim.submit(0, 9, {1, 2, 3});
        sim.run(30.0);
        EXPECT_TRUE(sim.agree({1, 2, 3}, 9));
        EXPECT_FALSE(refused.contains(first_block(*sim.replicas[1])));
    }
}

TEST(ReplicaPbft, ForgedNewViewAndUndecodableProposalCannotHalt) {
    // Node 3, a backup, announces the view it would lead without the votes
    // that elect it, then pre-prepares bytes that decode to no block.
    PbftReplicaSim sim("pbft-forged-newview", 31);
    for (std::uint32_t id = 0; id < 3; ++id) sim.boot(id);
    const std::uint64_t views_before = counter_value("pbft_view_changes_total");
    Transport& byzantine = sim.hub.endpoint(3);
    Writer new_view;
    new_view.u32(3);
    Writer own_vote;
    own_vote.u32(3);
    own_vote.u32(3);
    byzantine.broadcast("viewchange", ByteView(own_vote.data()));
    byzantine.broadcast("newview", ByteView(new_view.data()));
    byzantine.broadcast("preprepare",
                        ByteView(PbftEngine::pre_prepare_message(3, 1, {Bytes{0x01}})));
    sim.submit(0, 9, {0, 1, 2});
    sim.run(20.0);

    // One vote for view 3 is short of the f+1 that honour its NEW-VIEW: the
    // replicas stay in view 0 and replica 0 orders everything.
    EXPECT_TRUE(sim.agree({0, 1, 2}, 9));
    EXPECT_EQ(counter_value("pbft_view_changes_total"), views_before);
}

TEST(ReplicaPbft, UnvouchedCatchUpBlocksCannotSplitReplicas) {
    // Node 0, the primary of view 0, proposes nothing and instead answers
    // sequence 1 unasked: block A to replica 1, block B to replicas 2 and 3.
    // One peer's answer is short of the f+1 that catch-up requires.
    PbftReplicaSim sim("pbft-unvouched-seq", 37);
    for (std::uint32_t id = 1; id < 4; ++id) sim.boot(id);
    const ledger::Block a = height_one_block(5);
    const ledger::Block b = height_one_block(6);
    const auto seq_reply = [](const ledger::Block& block) {
        Writer w;
        w.u64(1);
        block.encode(w);
        return std::move(w).take();
    };
    Transport& byzantine = sim.hub.endpoint(0);
    for (int i = 0; i < 10; ++i)
        sim.scheduler.schedule_after(0.5 * i, [&] {
            byzantine.send(1, "seq", ByteView(seq_reply(a)));
            byzantine.send(2, "seq", ByteView(seq_reply(b)));
            byzantine.send(3, "seq", ByteView(seq_reply(b)));
        });
    sim.submit(0, 9, {1, 2, 3});
    sim.run(30.0);

    EXPECT_TRUE(sim.agree({1, 2, 3}, 9));
    for (std::uint32_t id = 1; id < 4; ++id) {
        core::Replica& r = *sim.replicas[id];
        ASSERT_GE(r.height(), 1u);
        EXPECT_NE(first_block(r), a.hash()) << "replica " << id;
        EXPECT_NE(first_block(r), b.hash()) << "replica " << id;
    }
}

TEST(ReplicaPbft, BlockIntervalLongerThanTheViewTimeoutStillCommits) {
    // Blocks 6 s apart, beyond the default 5 s view-change timeout: the
    // backups must wait for each proposal rather than depose the primary.
    PbftReplicaSim sim("pbft-long-interval", 41);
    sim.interval = 6.0;
    for (std::uint32_t id = 0; id < 4; ++id) sim.boot(id);
    const std::uint64_t views_before = counter_value("pbft_view_changes_total");
    sim.submit(0, 8, {0, 1, 2, 3});
    sim.run(60.0);
    EXPECT_TRUE(sim.agree({0, 1, 2, 3}, 8));
    EXPECT_EQ(counter_value("pbft_view_changes_total"), views_before);
}

TEST(ReplicaPbft, ForgedSenderCountsOnceAndOnlyThePrimaryProposes) {
    // Node 3 is a Byzantine backup. It pre-prepares a block of its own, and
    // every PREPARE and COMMIT it sends names replicas 0, 1 and 2 in turn as
    // the sender. Each of its votes must count once, for node 3.
    const ledger::Block forged = height_one_block(3);
    const auto run_with = [&](const std::string& tag,
                              const std::vector<std::uint32_t>& honest) {
        auto sim = std::make_unique<PbftReplicaSim>(tag, 13);
        for (const std::uint32_t id : honest) sim->boot(id);
        Transport& forger = sim->hub.endpoint(3);
        const auto forge_votes = [&forger, honest](std::uint32_t view, std::uint64_t seq,
                                                   const Hash256& digest) {
            for (const std::uint32_t claimed : {0u, 1u, 2u})
                for (const std::uint32_t to : honest) {
                    const Bytes vote = PbftEngine::vote_message(view, seq, digest, claimed);
                    forger.send(to, "prepare", ByteView(vote));
                    forger.send(to, "commit", ByteView(vote));
                }
        };
        // Vote for whatever the primary proposes.
        forger.set_handler([forge_votes](PeerId, const std::string& topic,
                                         ByteView payload) {
            if (topic != "preprepare") return;
            Reader r(payload);
            const std::uint32_t view = r.u32();
            const std::uint64_t seq = r.u64();
            forge_votes(view, seq, r.fixed<32>());
        });
        for (const std::uint32_t to : honest)
            forger.send(to, "preprepare", ByteView(pre_prepare_of(forged)));
        forge_votes(0, 1, PbftEngine::batch_digest({encode_to_bytes(forged)}));
        sim->run(1.0);
        sim->replicas[0]->submit_transaction(record_tx(1, 8));
        sim->run(4.0); // inside the view-change timeout
        return sim;
    };

    // Primary 0 alone with the forger: two voters, short of the 2f+1 = 3
    // quorum that the forged sender ids would fake.
    const auto alone = run_with("pbft-forged-alone", {0});
    EXPECT_EQ(alone->replicas[0]->height(), 0u);

    // Replicas 0 and 1 with the forger: its one vote completes the quorum for
    // the primary's block, never for its own.
    const auto pair = run_with("pbft-forged-pair", {0, 1});
    EXPECT_TRUE(pair->agree({0, 1}, 1));
    EXPECT_EQ(pair->replicas[0]->height(), 1u);
    EXPECT_NE(pair->replicas[0]->tip(), forged.hash());
}

TEST(ReplicaPbft, FailoverAndRestartedReplicaVotesAgain) {
    PbftReplicaSim sim("pbft-failover", 17);
    for (std::uint32_t id = 0; id < 4; ++id) sim.boot(id);
    const std::uint64_t views_before = counter_value("pbft_view_changes_total");
    sim.submit(0, 12, {0, 1, 2, 3});
    sim.run(5.0);
    ASSERT_TRUE(sim.agree({0, 1, 2, 3}, 12));

    // The primary crashes: the backups move to view 1 and keep confirming.
    sim.crash(0);
    sim.submit(12, 12, {1, 2, 3});
    sim.run(20.0);
    EXPECT_TRUE(sim.agree({1, 2, 3}, 24));
    EXPECT_GE(counter_value("pbft_view_changes_total") - views_before, 3u);

    // Replica 0 restarts on its data dir and catches up to the agreed tip.
    sim.restart(0);
    sim.run(10.0);
    EXPECT_TRUE(sim.agree({0, 1, 2, 3}, 24));

    // The view-1 primary crashes. Replicas 2 and 3 alone are short of a
    // quorum, so progress needs the restarted replica's votes.
    sim.crash(1);
    sim.submit(24, 12, {0, 2, 3});
    sim.run(30.0);
    EXPECT_TRUE(sim.agree({0, 2, 3}, 36));
}

TEST(ReplicaPbft, ConfirmsEverythingUnderMessageLoss) {
    net::LinkParams lossy;
    lossy.loss = 0.1;
    PbftReplicaSim sim("pbft-loss", 19, lossy);
    for (std::uint32_t id = 0; id < 4; ++id) sim.boot(id);
    sim.submit(0, 20, {0, 1, 2, 3});
    sim.run(90.0);
    EXPECT_TRUE(sim.agree({0, 1, 2, 3}, 20));
    EXPECT_GT(sim.network.stats().messages_lost, 0u);
}

TEST(ReplicaPbft, SendsEachTransactionToEachReplicaOnce) {
    // The origin's broadcast reaches every replica and nobody relays it on:
    // n - 1 = 3 "tx" frames per transaction, where a flood sends 9.
    std::uint64_t tx_frames = 0;
    PbftReplicaSim sim("pbft-thin-relay", 43);
    sim.hub.set_send_filter([&tx_frames](PeerId, PeerId, const std::string& topic) {
        tx_frames += topic == "tx";
        return true;
    });
    for (std::uint32_t id = 0; id < 4; ++id) sim.boot(id);
    sim.submit(0, 12, {0, 1, 2, 3});
    sim.run(20.0);
    EXPECT_TRUE(sim.agree({0, 1, 2, 3}, 12));
    EXPECT_EQ(tx_frames, 3u * 12);
}

TEST(ReplicaPbft, BackupsRepairATransactionThePrimaryMissed) {
    // Replica 1's "tx" frames to replica 0, the view-0 primary, are lost.
    // The backups' repair must bring the transaction to the primary before
    // their view-change timers fire.
    PbftReplicaSim sim("pbft-repair", 47);
    sim.hub.set_send_filter([](PeerId from, PeerId to, const std::string& topic) {
        return topic != "tx" || from != 1 || to != 0;
    });
    for (std::uint32_t id = 0; id < 4; ++id) sim.boot(id);
    const std::uint64_t views_before = counter_value("pbft_view_changes_total");
    ASSERT_TRUE(sim.replicas[1]->submit_transaction(record_tx(1, 9)));
    sim.run(consensus::PbftConfig{}.view_change_timeout - 0.5);
    EXPECT_TRUE(sim.agree({0, 1, 2, 3}, 1));
    sim.run(10.0);
    EXPECT_EQ(counter_value("pbft_view_changes_total"), views_before);
}

TEST(ReplicaPbft, BackupsRepairEachTransactionOncePerPrimary) {
    // Every "tx" frame to replica 0, the view-0 primary, is lost. Each backup
    // repairs the transaction to it once, not at every sync tick, and the
    // view change hands the transaction to replica 1, which orders it.
    std::map<std::pair<PeerId, PeerId>, int> tx_frames; // by (from, to)
    PbftReplicaSim sim("pbft-repair-once", 53);
    sim.hub.set_send_filter([&tx_frames](PeerId from, PeerId to, const std::string& topic) {
        if (topic != "tx") return true;
        ++tx_frames[{from, to}];
        return to != 0;
    });
    for (std::uint32_t id = 0; id < 4; ++id) sim.boot(id);
    const std::uint64_t views_before = counter_value("pbft_view_changes_total");
    ASSERT_TRUE(sim.replicas[1]->submit_transaction(record_tx(1, 9)));
    sim.run(30.0);
    EXPECT_TRUE(sim.agree({0, 1, 2, 3}, 1));
    EXPECT_GE(counter_value("pbft_view_changes_total") - views_before, 3u);
    // Replica 1 broadcast it, then each backup repaired it to replica 0 once.
    EXPECT_EQ((tx_frames[{1, 0}]), 2);
    EXPECT_EQ((tx_frames[{2, 0}]), 1);
    EXPECT_EQ((tx_frames[{3, 0}]), 1);
    // Replica 1, the view-1 primary, is known to hold it: it sent it.
    EXPECT_EQ((tx_frames[{2, 1}]), 0);
    EXPECT_EQ((tx_frames[{3, 1}]), 0);
    const std::pair<PeerId, PeerId> origin_to_primary{1, 0};
    for (const auto& [link, frames] : tx_frames)
        EXPECT_LE(frames, link == origin_to_primary ? 2 : 1)
            << link.first << " -> " << link.second;
}

namespace {

/// A host with no work of its own that records what its engine executes.
/// With `in_order`, it accepts a batch only once its predecessor executed.
struct RecordingHost final : consensus::PbftHost {
    bool in_order = false;
    std::vector<std::pair<std::uint64_t, std::vector<Bytes>>> executed;
    std::optional<std::vector<Bytes>> next_batch(std::uint64_t, bool) override {
        return std::nullopt;
    }
    void execute(std::uint64_t seq, std::uint32_t, std::vector<Bytes> batch) override {
        executed.emplace_back(seq, std::move(batch));
    }
    bool has_pending() const override { return false; }
    bool accepts(std::uint64_t seq, const std::vector<Bytes>&) override {
        return !in_order || seq == executed.size() + 1;
    }
};

/// One engine, replica 2, hosted by a RecordingHost; the other three replica
/// ids are raw endpoints the test speaks for.
struct LoneEngine {
    sim::Scheduler scheduler;
    net::Network network{scheduler, Rng(23)};
    SimTransportHub hub{network, 4};
    RecordingHost host;
    std::unique_ptr<PbftEngine> engine;
    std::vector<std::string> sent; // topics the engine sent to replica 0

    LoneEngine() {
        network.build_full_mesh();
        for (std::uint32_t id = 1; id < 4; ++id)
            hub.endpoint(id).set_handler(ignore_messages);
        hub.endpoint(0).set_handler([this](PeerId, const std::string& topic, ByteView) {
            sent.push_back(topic);
        });
        consensus::PbftConfig config;
        config.view_change_timeout = 60.0; // no view change of its own
        engine = std::make_unique<PbftEngine>(hub.endpoint(2), host, config);
        hub.endpoint(2).set_handler(
            [this](PeerId from, const std::string& topic, ByteView payload) {
                engine->handle(from, topic, payload);
            });
    }

    void deliver(const std::vector<std::uint32_t>& senders, const std::string& topic,
                 const Bytes& payload) {
        for (const std::uint32_t id : senders)
            hub.endpoint(id).send(2, topic, ByteView(payload));
        scheduler.run_until(scheduler.now() + 0.5);
    }

    /// The view's primary pre-prepares `batch` at `seq`; replicas 0, 1 and 3
    /// vote PREPARE and COMMIT for it.
    void order(std::uint32_t view, std::uint64_t seq, const std::vector<Bytes>& batch) {
        deliver({view % 4}, "preprepare", PbftEngine::pre_prepare_message(view, seq, batch));
        const Bytes vote =
            PbftEngine::vote_message(view, seq, PbftEngine::batch_digest(batch), 0);
        deliver({0, 1, 3}, "prepare", vote);
        deliver({0, 1, 3}, "commit", vote);
    }
};

const std::vector<Bytes> kBatchX{Bytes{1}}, kBatchY{Bytes{2}}, kBatchZ{Bytes{3}};

} // namespace

TEST(PbftEngine, CommittedBatchSurvivesALaterView) {
    // Replica 2 commits batch X at sequence 2 in view 0 but cannot execute it
    // before sequence 1. In view 1 the new primary pre-prepares batch Y at
    // sequence 2; replica 2 must still execute X there.
    LoneEngine lone;
    lone.order(0, 2, kBatchX);
    EXPECT_TRUE(lone.host.executed.empty());
    Writer view_change;
    view_change.u32(1);
    view_change.u32(0);
    lone.deliver({1, 3}, "viewchange", view_change.data());
    ASSERT_EQ(lone.engine->view(), 1u);
    lone.order(1, 2, kBatchY);
    lone.order(1, 1, kBatchZ);

    ASSERT_EQ(lone.host.executed.size(), 2u);
    EXPECT_EQ(lone.host.executed[0], std::make_pair(std::uint64_t{1}, kBatchZ));
    EXPECT_EQ(lone.host.executed[1], std::make_pair(std::uint64_t{2}, kBatchX));
}

TEST(PbftEngine, EarlyVotesCountDespiteAForgedFirstVote) {
    // Replica 3 votes PREPARE for a batch nobody proposed before anyone else
    // votes. The PREPAREs of replicas 0 and 1 for the batch the primary then
    // pre-prepares arrive before that pre-prepare, and must still count.
    LoneEngine lone;
    const Bytes forged = PbftEngine::vote_message(0, 1, PbftEngine::batch_digest(kBatchY), 3);
    const Bytes vote = PbftEngine::vote_message(0, 1, PbftEngine::batch_digest(kBatchX), 0);
    lone.deliver({3}, "prepare", forged);
    lone.deliver({0, 1}, "prepare", vote);
    lone.deliver({0}, "preprepare", PbftEngine::pre_prepare_message(0, 1, kBatchX));
    lone.deliver({0, 1}, "commit", vote);

    ASSERT_EQ(lone.host.executed.size(), 1u);
    EXPECT_EQ(lone.host.executed[0], std::make_pair(std::uint64_t{1}, kBatchX));
}

TEST(PbftEngine, RefusedBatchIsAskedAgainOnceItsPredecessorExecutes) {
    // The host cannot judge sequence 2 before sequence 1 executes, so it
    // refuses it at first. Once sequence 1 executes, the engine asks again
    // and, accepted, the batch commits with the votes already received.
    LoneEngine lone;
    lone.host.in_order = true;
    lone.order(0, 2, kBatchX);
    EXPECT_TRUE(lone.host.executed.empty());
    EXPECT_TRUE(lone.sent.empty()); // no PREPARE, and no COMMIT, for a refused batch
    lone.order(0, 1, kBatchZ);
    EXPECT_EQ(std::count(lone.sent.begin(), lone.sent.end(), "commit"), 2);

    ASSERT_EQ(lone.host.executed.size(), 2u);
    EXPECT_EQ(lone.host.executed[0], std::make_pair(std::uint64_t{1}, kBatchZ));
    EXPECT_EQ(lone.host.executed[1], std::make_pair(std::uint64_t{2}, kBatchX));
}

namespace {

/// Run `fn` on the transport's loop thread and return its result.
template <typename Fn>
auto on_loop(Transport& transport, Fn fn) {
    std::promise<decltype(fn())> done;
    auto result = done.get_future();
    transport.post([&] { done.set_value(fn()); });
    return result.get();
}

} // namespace

namespace {

/// Four replicas of one engine over loopback TcpTransport: every submitted
/// transaction confirms on every replica and the tips agree.
void converge_over_loopback_tcp(core::ReplicaEngine engine, const std::string& tag) {
    TempDir dirs(tag);
    constexpr std::uint32_t kNodes = 4;
    constexpr std::uint64_t kTxs = 20;
    std::vector<std::unique_ptr<TcpTransport>> transports;
    for (std::uint32_t id = 0; id < kNodes; ++id) {
        // Higher ids dial lower ones, so only lower ports need to be known.
        std::vector<TcpPeer> peers;
        for (std::uint32_t p = 0; p < kNodes; ++p)
            if (p != id)
                peers.push_back({p, "127.0.0.1",
                                 p < id ? transports[p]->listen_port()
                                        : std::uint16_t{0}});
        transports.push_back(std::make_unique<TcpTransport>(tcp_config(id, peers)));
    }
    std::vector<std::unique_ptr<core::Replica>> replicas;
    for (std::uint32_t id = 0; id < kNodes; ++id) {
        core::ReplicaConfig config;
        config.engine = engine;
        config.node_count = kNodes;
        config.block_interval = 0.25;
        config.data_dir = dirs.path / ("n" + std::to_string(id));
        replicas.push_back(std::make_unique<core::Replica>(*transports[id], config));
        replicas.back()->start();
    }
    for (auto& t : transports) t->start();
    ASSERT_TRUE(eventually(5.0, [&] {
        for (auto& t : transports)
            if (t->connected_peers() != kNodes - 1) return false;
        return true;
    }));

    for (std::uint64_t i = 0; i < kTxs; ++i) {
        const std::size_t id = i % kNodes;
        EXPECT_TRUE(on_loop(*transports[id], [&] {
            return replicas[id]->submit_transaction(record_tx(i, 9));
        }));
    }
    EXPECT_TRUE(eventually(30.0, [&] {
        std::vector<std::pair<Hash256, std::uint64_t>> views;
        for (std::uint32_t id = 0; id < kNodes; ++id)
            views.push_back(on_loop(*transports[id], [&] {
                return std::make_pair(replicas[id]->tip(), replicas[id]->confirmed_txs());
            }));
        for (const auto& v : views)
            if (v != std::make_pair(views.front().first, kTxs)) return false;
        return true;
    }));

    for (std::uint32_t id = 0; id < kNodes; ++id)
        on_loop(*transports[id], [&] {
            replicas[id]->stop();
            return true;
        });
    for (auto& t : transports) t->shutdown();
    replicas.clear();
}

} // namespace

TEST(ReplicaPbft, ConvergesOverLoopbackTcp) {
    converge_over_loopback_tcp(core::ReplicaEngine::kPbft, "pbft-tcp");
}

TEST(ReplicaNakamoto, ConvergesOverLoopbackTcp) {
    converge_over_loopback_tcp(core::ReplicaEngine::kNakamoto, "nakamoto-tcp");
}

// --- Daemon lifecycle through ClusterDriver (satellite: graceful shutdown) ---

TEST(Cluster, SigtermFlushesAndReopensWithZeroWalReplay) {
#ifdef DLT_NODE_BIN_PATH
    ::setenv("DLT_NODE_BIN", DLT_NODE_BIN_PATH, /*overwrite=*/0);
#endif
    TempDir work("cluster-sigterm");
    app::ClusterConfig config;
    config.node_count = 3;
    config.engine = core::ReplicaEngine::kNakamoto;
    config.block_interval = 0.25;
    config.work_dir = work.path;
    config.lsm_state = true; // LSM commits per WAL record: clean reopen replays 0
    app::ClusterDriver cluster(config);
    cluster.start();

    for (std::uint64_t i = 0; i < 12; ++i)
        EXPECT_TRUE(cluster.rpc(i % 3).submit(record_tx(i, 2)));
    ASSERT_TRUE(eventually(15.0, [&] {
        const auto s = cluster.rpc(1).status();
        return s && s->confirmed_txs >= 12 && s->height >= 2;
    }));

    // SIGTERM must flush and exit 0 — the graceful path, not a crash.
    cluster.signal_node(1, SIGTERM);
    EXPECT_EQ(cluster.wait_node(1), 0);

    // The surviving nodes keep making progress and still shut down cleanly.
    ASSERT_TRUE(eventually(10.0, [&] {
        const auto a = cluster.rpc(0).status();
        const auto b = cluster.rpc(2).status();
        return a && b && a->tip == b->tip && a->height >= 2;
    }));
    // Node 1 is already down; stop_all reports -1 for it and 0 for the rest.
    const std::vector<int> codes = cluster.stop_all();
    EXPECT_EQ(codes[0], 0);
    EXPECT_EQ(codes[2], 0);

    // Reopen the SIGTERMed node's data dir in-process: every connect was
    // WAL-committed into the LSM engine before the daemon exited, so recovery
    // must come from the engine with zero WAL records replayed.
    core::PersistentNodeOptions options;
    options.state_engine = core::StateEngine::kPersistent;
    core::PersistentNode node(cluster.data_dir(1),
                              ledger::make_genesis("e29", 0x207fffff), options);
    EXPECT_GT(node.height(), 0u);
    EXPECT_TRUE(node.recovery().from_state_engine);
    EXPECT_EQ(node.recovery().wal_records_replayed, 0u);
    EXPECT_EQ(node.recovery().wal_bytes_truncated, 0u);
}

// --- RPC served on the transport loop ---------------------------------------

namespace {

/// Four PBFT NodeDaemons in this process over loopback, each serving its RPC
/// port on its transport loop.
struct DaemonMesh {
    TempDir dirs;
    std::vector<std::unique_ptr<core::NodeDaemon>> daemons;

    DaemonMesh(const std::string& tag, std::size_t queue_cap) : dirs(tag) {
        constexpr std::uint32_t kNodes = 4;
        for (std::uint32_t id = 0; id < kNodes; ++id) {
            std::vector<TcpPeer> peers;
            for (std::uint32_t p = 0; p < kNodes; ++p)
                if (p != id)
                    peers.push_back({p, "127.0.0.1",
                                     p < id ? daemons[p]->listen_port() : std::uint16_t{0}});
            core::NodeDaemonConfig config;
            config.transport = tcp_config(id, peers);
            config.transport.max_queue_bytes_per_peer = queue_cap;
            config.replica.engine = core::ReplicaEngine::kPbft;
            config.replica.node_count = kNodes;
            config.replica.block_interval = 0.1;
            config.replica.data_dir = dirs.path / ("n" + std::to_string(id));
            daemons.push_back(std::make_unique<core::NodeDaemon>(config));
        }
        for (auto& d : daemons) d->start();
    }

    app::RpcClient client(std::size_t node) const {
        app::RpcClient c;
        EXPECT_TRUE(c.connect("127.0.0.1", daemons[node]->rpc_port(), 5.0));
        return c;
    }

    /// Every daemon has confirmed at least `txs` transactions on one tip and
    /// holds nothing more in its mempool.
    bool all_confirmed(std::uint64_t txs) const {
        std::vector<Hash256> tips;
        for (std::size_t i = 0; i < daemons.size(); ++i) {
            const auto s = client(i).status();
            if (!s || s->confirmed_txs < txs || s->mempool_size > 0) return false;
            tips.push_back(s->tip);
        }
        return std::all_of(tips.begin(), tips.end(),
                           [&](const Hash256& t) { return t == tips.front(); });
    }
};

/// A blocking loopback connection to `port`, closed on scope exit, with send
/// and receive timeouts so a stalled daemon fails the test instead of hanging
/// it.
struct RawClient {
    int fd = -1;
    FrameDecoder decoder;

    explicit RawClient(std::uint16_t port) : fd(::socket(AF_INET, SOCK_STREAM, 0)) {
        timeval tv{2, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    }
    ~RawClient() { ::close(fd); }
    RawClient(const RawClient&) = delete;
    RawClient& operator=(const RawClient&) = delete;

    bool send(ByteView bytes) const {
        for (std::size_t off = 0; off < bytes.size();) {
            const ssize_t n =
                ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
            if (n <= 0) return false;
            off += static_cast<std::size_t>(n);
        }
        return true;
    }

    /// The next reply frame's body, or nullopt on a timeout or EOF.
    std::optional<Bytes> reply() {
        std::uint8_t buf[4096];
        while (true) {
            if (auto frame = decoder.next())
                return decode_message_payload(ByteView(frame->payload)).body;
            const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
            if (n <= 0) return std::nullopt;
            decoder.feed(ByteView(buf, static_cast<std::size_t>(n)));
        }
    }
};

Bytes submit_frame(const ledger::Transaction& tx) {
    return encode_message_frame("submit", ByteView(encode_to_bytes(tx)));
}

} // namespace

TEST(NodeDaemonRpc, ConcurrentClientsBothGetReplies) {
    DaemonMesh mesh("rpc-concurrent", 32u << 20);
    const std::uint16_t port = mesh.daemons[0]->rpc_port();
    // Both connections stay open, and each request goes out before either
    // reply is read: a daemon serving one client at a time would leave the
    // second one's reply waiting until the first disconnects.
    RawClient a(port), b(port);
    constexpr std::uint64_t kEach = 40;
    for (std::uint64_t i = 0; i < kEach; ++i) {
        ASSERT_TRUE(a.send(ByteView(submit_frame(record_tx(100, i)))));
        ASSERT_TRUE(b.send(ByteView(submit_frame(record_tx(101, i)))));
        const auto ra = a.reply(), rb = b.reply();
        ASSERT_TRUE(ra.has_value() && rb.has_value()) << "request " << i;
        EXPECT_EQ(*ra, Bytes{1});
        EXPECT_EQ(*rb, Bytes{1});
    }
    EXPECT_TRUE(eventually(20.0, [&] { return mesh.all_confirmed(2 * kEach); }));
}

TEST(NodeDaemonRpc, ClientThatNeverReadsIsDroppedAtTheCap) {
    constexpr std::size_t kCap = 256u << 10;
    DaemonMesh mesh("rpc-unread", kCap);
    const std::uint64_t dropped_before = counter_value("net_tcp_clients_dropped_total");

    // Submits and metrics snapshots (the large replies) without ever reading:
    // the replies fill the socket buffers, then the client's queue, until the
    // daemon drops the connection and the sends fail.
    {
        const RawClient stalled(mesh.daemons[0]->rpc_port());
        const Bytes metrics = encode_message_frame("metrics", ByteView());
        bool dropped = false;
        for (std::uint64_t i = 0; i < 20000 && !dropped; ++i)
            dropped = !stalled.send(ByteView(submit_frame(record_tx(200, i)))) ||
                      !stalled.send(ByteView(metrics));
        EXPECT_TRUE(dropped);
    }
    EXPECT_GT(counter_value("net_tcp_clients_dropped_total"), dropped_before);

    // The replicas keep committing, the dropping daemon included.
    app::RpcClient rpc0 = mesh.client(0), rpc1 = mesh.client(1);
    const auto before = rpc1.status();
    ASSERT_TRUE(before);
    for (std::uint64_t i = 0; i < 10; ++i) {
        EXPECT_TRUE(rpc0.submit(record_tx(201, i)));
        EXPECT_TRUE(rpc1.submit(record_tx(202, i)));
    }
    EXPECT_TRUE(eventually(20.0, [&] {
        return mesh.all_confirmed(before->confirmed_txs + 20);
    }));
}

TEST(NodeDaemonRpc, HalfAFrameDoesNotDelayAnotherClient) {
    DaemonMesh mesh("rpc-slowloris", 32u << 20);
    const std::uint16_t port = mesh.daemons[0]->rpc_port();

    // The slow-loris client: half of a submit frame, then silence.
    RawClient loris(port);
    const Bytes frame = submit_frame(record_tx(300, 0));
    ASSERT_TRUE(loris.send(ByteView(frame).subspan(0, frame.size() / 2)));

    // Another client's submit is answered at once (the socket times out
    // after 2 s), and so is a status request after it.
    RawClient other(port);
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(other.send(ByteView(submit_frame(record_tx(301, 0)))));
    const auto reply = other.reply();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(*reply, Bytes{1});
    ASSERT_TRUE(other.send(ByteView(encode_message_frame("status", ByteView()))));
    EXPECT_TRUE(other.reply().has_value());
    EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count(),
              1.0);

    // The stalled client finishing its frame is served too.
    ASSERT_TRUE(loris.send(ByteView(frame).subspan(frame.size() / 2)));
    const auto late = loris.reply();
    ASSERT_TRUE(late.has_value());
    EXPECT_EQ(*late, Bytes{1});
}
