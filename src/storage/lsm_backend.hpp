// LSM-flavored persistent UTXO state engine (ROADMAP item 2, E28). State that
// outgrows RAM lives in immutable sorted run files on disk; recent mutations
// live in a sorted memtable held only in memory. The engine keeps no journal
// of its own: it is durable at run flush, and the caller's log covers every
// batch committed since (PersistentNode replays its node-WAL suffix past
// committed_tag(); see DESIGN.md "State engine" and src/storage/README.md for
// the on-disk format).
//
// Write path:   put/erase mutate the memtable; commit_batch(tag, meta) marks
//               a batch boundary. When the memtable exceeds its limit at a
//               boundary, or on flush(), the whole table is written to a new
//               sorted run (data blocks + sparse index + bloom filter, all
//               CRC-framed) that carries the last batch's tag + meta.
// Read path:    memtable first, then runs newest-generation-first; each run
//               is consulted through its bloom filter (negative lookups skip
//               the disk entirely), a binary-searched sparse index, and an
//               LRU cache of decoded data blocks.
// Compaction:   when a commit fills the memtable and the run count has
//               reached the trigger, a full k-way merge rewrites every run
//               into one (newest generation wins, tombstones dropped). Flush
//               and compaction run synchronously at commit boundaries — never
//               on background threads — so results are deterministic at any
//               DLT_THREADS.
// Crash safety: runs are written to a .tmp file, fsynced, renamed, and the
//               directory fsynced; a crash at any byte offset leaves either
//               the old runs or the old runs + the new one, never a torn run.
//               A new compacted run records the generations it supersedes,
//               so a crash between rename and old-run deletion is healed on
//               open. Batches committed after the newest run die with the
//               process; the caller replays them.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "ledger/state_backend.hpp"
#include "storage/file.hpp"
#include "storage/lru.hpp"

namespace dlt::obs {
class Counter;
} // namespace dlt::obs

namespace dlt::storage {

struct LsmOptions {
    /// Memtable entries that trigger a flush at the next commit boundary.
    std::size_t memtable_limit = 4096;
    /// Run-file count that triggers a full merge at the next commit boundary.
    std::size_t compact_trigger = 6;
    /// Decoded data blocks held in the shared block cache.
    std::size_t block_cache_capacity = 256;
    CrashInjector* injector = nullptr;
    FsyncMode fsync = FsyncMode::kAlways;
};

class LsmBackend final : public ledger::StateBackend {
public:
    using OutPoint = ledger::OutPoint;
    using TxOutput = ledger::TxOutput;

    struct Stats {
        std::uint64_t runs = 0;             // live sorted-run files
        std::uint64_t memtable_entries = 0; // keys resident in the memtable
        std::uint64_t flushes = 0;          // memtable flushes this session
        std::uint64_t compactions = 0;      // full merges this session
        std::uint64_t run_probes = 0;       // run lookups attempted
        std::uint64_t bloom_skips = 0;      // run lookups the bloom rejected
    };

    /// Open (or create) the engine's files under `dir`, loading its runs and
    /// healing any interrupted flush/compaction. The memtable starts empty.
    explicit LsmBackend(const std::filesystem::path& dir, LsmOptions options = {});
    ~LsmBackend() override;

    const char* name() const override { return "lsm"; }

    std::optional<TxOutput> get(const OutPoint& op) const override;
    bool insert_if_absent(const OutPoint& op, const TxOutput& out) override;
    std::optional<TxOutput> put(const OutPoint& op, const TxOutput& out) override;
    std::optional<TxOutput> erase(const OutPoint& op) override;
    std::uint64_t size() const override { return live_size_; }
    void for_each(const Visitor& visit) const override;
    void for_each_sorted(const Visitor& visit) const override;

    void commit_batch(std::uint64_t tag, ByteView meta) override;
    void flush() override;
    std::uint64_t committed_tag() const override { return committed_tag_; }
    Bytes committed_meta() const override { return committed_meta_; }

    /// Copies materialize into the in-memory engine: a clone is a plain value
    /// snapshot sharing no files with this backend.
    std::unique_ptr<ledger::StateBackend> clone() const override;

    Stats stats() const;

private:
    struct Cell {
        OutPoint key;
        bool live = false; // false = tombstone
        TxOutput value;
    };

    struct BlockRef {
        OutPoint first_key;
        std::uint64_t offset = 0; // frame offset in the run file
        std::uint32_t cells = 0;
    };

    struct Run {
        std::uint64_t generation = 0;
        std::uint64_t entry_count = 0;
        std::uint64_t max_tag = 0;
        std::uint64_t covers_below_gen = 0;
        Bytes meta;
        std::vector<BlockRef> index;
        std::uint8_t bloom_probes = 0;
        std::uint64_t bloom_bits = 0;
        Bytes bloom;
        std::filesystem::path path;
        std::unique_ptr<RandomAccessFile> file;

        bool bloom_may_contain(const OutPoint& key) const;
    };

    using CellSink = std::function<void(const Cell&)>;
    using CellSource = std::function<void(const CellSink&)>;

    std::filesystem::path run_path(std::uint64_t generation) const;
    void load_run(const std::filesystem::path& path);
    /// Stream the `count` sorted cells `source` emits into a new run under
    /// the last batch's tag + meta, and install it as the newest run.
    void write_run(std::uint64_t count, const CellSource& source,
                   std::uint64_t generation, std::uint64_t covers_below_gen);
    std::shared_ptr<const std::vector<Cell>> read_block(const Run& run,
                                                        const BlockRef& block) const;
    /// Lookup in one run: outer nullopt = absent, inner nullopt = tombstone.
    std::optional<std::optional<TxOutput>> find_in_run(const Run& run,
                                                       const OutPoint& key) const;
    void flush_memtable();
    void compact();
    void merge_all(const CellSink& emit) const;
    void update_gauges() const;

    std::filesystem::path dir_;
    LsmOptions options_;

    /// Sorted write buffer; nullopt marks a tombstone shadowing older runs.
    std::map<OutPoint, std::optional<TxOutput>> memtable_;
    std::vector<Run> runs_; // oldest generation first

    std::uint64_t next_generation_ = 1;
    std::uint64_t live_size_ = 0;
    // Tag + meta of the newest run on disk (durable), and of the last
    // commit_batch (carried by the next run written).
    std::uint64_t committed_tag_ = 0;
    Bytes committed_meta_;
    std::uint64_t batch_tag_ = 0;
    Bytes batch_meta_;

    mutable LruCache<std::uint64_t, std::shared_ptr<const std::vector<Cell>>>
        block_cache_;
    mutable std::uint64_t run_probes_ = 0;
    mutable std::uint64_t bloom_skips_ = 0;
    // Registry counters behind run_probes_/bloom_skips_, resolved once.
    obs::Counter* probes_total_ = nullptr;
    obs::Counter* bloom_skips_total_ = nullptr;
    std::uint64_t flushes_ = 0;
    std::uint64_t compactions_ = 0;
};

} // namespace dlt::storage
