// Shared pieces of the perfbench binary: run options, wall clock, JSON lists
// for the raw result, seeding of the durable UTXO state, and the demand
// traces the cluster workloads replay.
//
// The binary measures and checks; it prints raw samples (latencies, CPU
// readings, obs snapshots, per-stage timings) as one JSON object. run.py
// reduces those samples to the benchmark's metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "ledger/transaction.hpp"

namespace perfbench {

namespace fs = std::filesystem;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /// Scratch root inside the checkout: cleared at start; data dirs are
    /// removed at exit, the trace file of a traced run is kept.
    fs::path work_dir;
};

inline double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// A measured number with every digit (obs::json_number keeps six), for
/// obs::JsonObjectWriter::field_raw in the raw result.
std::string json_full(double v);
/// JSON arrays for obs::JsonObjectWriter::field_raw (the raw result).
std::string json_list(const std::vector<double>& values);
std::string json_list(const std::vector<std::uint64_t>& values);
std::string json_list(const std::vector<std::string>& strings);
/// Elements that are already JSON (e.g. obs snapshots); empty ones read null.
std::string json_raw_list(const std::vector<std::string>& elements);

/// The daemons' chain parameters: the seeded data dir must open under the
/// same genesis the dlt-node replicas derive from their chain tag.
inline constexpr const char* kChainTag = "perfbench";
inline constexpr std::uint32_t kGenesisBits = 0x207fffff;
inline constexpr double kBlockInterval = 0.2;
inline constexpr std::size_t kNodes = 4;

/// Build a PersistentNode data dir (LSM state engine) whose chain's coinbases
/// hold `utxos` outputs, and return those outpoints in creation order.
std::vector<dlt::ledger::OutPoint> seed_state(const fs::path& dir,
                                              std::size_t utxos,
                                              std::uint64_t seed);

/// One scheduled request of an open-loop trace.
struct TraceEntry {
    dlt::ledger::Transaction tx;
    double at = 0;          // seconds after the window opens
    std::uint32_t node = 0; // which replica receives it
};

/// `windows` consecutive windows of app::WorkloadEngine records offered at
/// `tps`, each holding exactly `count` requests with due times rescaled onto
/// [0, seconds) (a Poisson process conditioned on its count).
std::vector<std::vector<TraceEntry>> record_windows(double tps, std::size_t count,
                                                    double seconds, int windows,
                                                    std::uint64_t seed);

/// `count` unsigned transfers, each spending one distinct outpoint from
/// `spendable` into one new output, at uniformly random due times over
/// `seconds` (a Poisson process of fixed count). Outpoints are taken in a
/// seeded random order after skipping the first `skip`, so successive
/// windows spend disjoint outputs.
std::vector<TraceEntry> transfer_trace(
    const std::vector<dlt::ledger::OutPoint>& spendable, std::size_t count,
    double seconds, std::uint64_t seed, std::size_t skip);

/// Recursive copy of a data dir into `to` (created if missing).
void copy_dir(const fs::path& from, const fs::path& to);

// --- Workload entry points: each returns the raw result as a JSON object. ---

/// cluster-records / cluster-transfers: four dlt-node PBFT replicas.
std::string run_cluster_workload(const Options& opt);
/// sim-signed: in-process NakamotoNetwork with signed records.
std::string run_sim_workload(const Options& opt);

/// Single-replica stage replay of one window's trace on the seeded state
/// (traced runs only). `scratch` is created and may be left behind.
std::string replay_pipeline(const fs::path& seed_dir, const fs::path& scratch,
                            const std::vector<TraceEntry>& trace);

/// Wall-clock span through obs::Tracer (seconds since the run's epoch).
void span(const char* name, double begin_s, double end_s, std::uint32_t track,
          const std::string& txid = {});
/// Epoch for span(): set once when the measured run starts.
void set_span_epoch(double t);

} // namespace perfbench
