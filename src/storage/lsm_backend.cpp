#include "storage/lsm_backend.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/serialize.hpp"
#include "obs/metrics.hpp"
#include "storage/recordio.hpp"

namespace dlt::storage {

namespace {

constexpr std::uint32_t kRunMagic = 0x53524E31; // "SRN1"
constexpr std::uint32_t kRunVersion = 1;

/// Decoded data blocks held in the shared block cache.
constexpr std::size_t kBlockCacheCapacity = 256;

// Record types inside a run file, in file order.
constexpr std::uint8_t kRunHeader = 1;
constexpr std::uint8_t kRunData = 2;
constexpr std::uint8_t kRunIndex = 3;
constexpr std::uint8_t kRunBloom = 4;

// Fixed cell footprint: OutPoint (36) + live flag (1) + TxOutput (28). Fixed
// size keeps binary search inside a decoded block trivial; tombstones carry a
// zeroed value.
constexpr std::size_t kCellBytes = 65;
constexpr std::size_t kCellsPerBlock = 256; // ~16.6 KiB data blocks

// Bloom sizing: ~10 bits/key with 6 probes gives ~1% false positives.
constexpr std::uint64_t kBloomBitsPerKey = 10;
constexpr std::uint8_t kBloomProbes = 6;

std::uint64_t splitmix64(std::uint64_t h) {
    h += 0x9E3779B97F4A7C15ull;
    h ^= h >> 30;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 27;
    h *= 0x94D049BB133111EBull;
    h ^= h >> 31;
    return h;
}

// Double hashing: probe i tests bit (h1 + i*h2) mod bits.
std::pair<std::uint64_t, std::uint64_t> bloom_hashes(const ledger::OutPoint& key) {
    const std::uint64_t h1 = ledger::OutPointHash{}(key);
    const std::uint64_t h2 = splitmix64(h1) | 1; // odd, never degenerate
    return {h1, h2};
}

} // namespace

bool LsmBackend::Run::bloom_may_contain(const OutPoint& key) const {
    if (bloom_bits == 0) return entry_count > 0;
    const auto [h1, h2] = bloom_hashes(key);
    for (std::uint8_t i = 0; i < bloom_probes; ++i) {
        const std::uint64_t bit = (h1 + i * h2) % bloom_bits;
        if (!(bloom[bit >> 3] & (1u << (bit & 7)))) return false;
    }
    return true;
}

LsmBackend::LsmBackend(const std::filesystem::path& dir, LsmOptions options)
    : dir_(dir), options_(options), block_cache_(kBlockCacheCapacity) {
    auto& registry = obs::MetricsRegistry::global();
    probes_total_ =
        &registry.counter("state_run_probes_total", "Sorted-run lookups attempted");
    bloom_skips_total_ = &registry.counter("state_bloom_skips_total",
                                           "Run lookups skipped by the bloom filter");
    std::filesystem::create_directories(dir_);

    // Heal interrupted flushes/compactions: a .tmp never renamed is garbage.
    std::vector<std::filesystem::path> run_files;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.ends_with(".tmp")) {
            std::filesystem::remove(entry.path(), ec);
        } else if (name.starts_with("run-") && name.ends_with(".run")) {
            run_files.push_back(entry.path());
        }
    }
    std::sort(run_files.begin(), run_files.end());
    for (const auto& path : run_files) load_run(path);

    // A compacted run supersedes every generation below covers_below_gen; a
    // crash between its rename and the old-run deletion leaves both on disk.
    std::uint64_t covers = 0;
    for (const Run& run : runs_) covers = std::max(covers, run.covers_below_gen);
    if (covers > 0) {
        std::erase_if(runs_, [&](Run& run) {
            if (run.generation >= covers) return false;
            run.file.reset();
            std::error_code rm;
            std::filesystem::remove(run.path, rm);
            return true;
        });
    }
    for (const Run& run : runs_) {
        next_generation_ = std::max(next_generation_, run.generation + 1);
        if (run.max_tag >= committed_tag_) {
            committed_tag_ = run.max_tag;
            committed_meta_ = run.meta;
        }
    }

    batch_tag_ = committed_tag_;
    batch_meta_ = committed_meta_;

    // Live entry count: one merged pass over the runs.
    live_size_ = 0;
    merge_all([this](const Cell&) { ++live_size_; });
    update_gauges();
}

LsmBackend::~LsmBackend() = default;

std::filesystem::path LsmBackend::run_path(std::uint64_t generation) const {
    char name[32];
    std::snprintf(name, sizeof(name), "run-%08llu.run",
                  static_cast<unsigned long long>(generation));
    return dir_ / name;
}

void LsmBackend::load_run(const std::filesystem::path& path) {
    const Bytes image = read_file(path);
    Run run;
    run.path = path;
    bool saw_header = false;
    bool saw_index = false;
    const ScanResult scan = scan_records(
        ByteView(image), kRunMagic, [&](std::uint64_t offset, ByteView payload) {
            (void)offset;
            Reader r(payload);
            switch (r.u8()) {
            case kRunHeader: {
                const std::uint32_t version = r.u32();
                if (version != kRunVersion)
                    throw StorageError("unsupported run version " +
                                       std::to_string(version));
                run.generation = r.u64();
                run.entry_count = r.u64();
                const std::uint32_t cells_per_block = r.u32();
                if (cells_per_block != kCellsPerBlock)
                    throw StorageError("unsupported run block size");
                run.max_tag = r.u64();
                run.covers_below_gen = r.u64();
                run.meta = r.blob();
                r.expect_done();
                saw_header = true;
                break;
            }
            case kRunData:
                break; // decoded lazily through the block cache
            case kRunIndex: {
                const std::uint64_t blocks = r.varint_count(36 + 8 + 4);
                run.index.reserve(blocks);
                for (std::uint64_t i = 0; i < blocks; ++i) {
                    BlockRef ref;
                    ref.first_key = OutPoint::decode(r);
                    ref.offset = r.u64();
                    ref.cells = r.u32();
                    run.index.push_back(ref);
                }
                r.expect_done();
                saw_index = true;
                break;
            }
            case kRunBloom: {
                run.bloom_probes = r.u8();
                run.bloom_bits = r.u64();
                run.bloom = r.blob();
                r.expect_done();
                if (run.bloom.size() * 8 < run.bloom_bits)
                    throw StorageError("run bloom filter shorter than declared");
                break;
            }
            default:
                throw StorageError("unknown run record type in " + path.string());
            }
        });
    // Runs are renamed into place only after a full write + fsync, so a
    // partial file is corruption, not a crash artifact.
    if (scan.valid_end != image.size() || !saw_header || !saw_index)
        throw StorageError("corrupt or truncated run file: " + path.string());
    run.file = std::make_unique<RandomAccessFile>(path);
    runs_.push_back(std::move(run));
    std::sort(runs_.begin(), runs_.end(), [](const Run& a, const Run& b) {
        return a.generation < b.generation;
    });
}

void LsmBackend::write_run(std::uint64_t count, const CellSource& source,
                           std::uint64_t generation, std::uint64_t covers_below_gen) {
    const std::uint64_t bloom_bits = std::max<std::uint64_t>(64, count * kBloomBitsPerKey);
    Run run{.generation = generation, .entry_count = count, .max_tag = batch_tag_,
            .covers_below_gen = covers_below_gen, .meta = batch_meta_, .index = {},
            .bloom_probes = kBloomProbes, .bloom_bits = bloom_bits,
            .bloom = Bytes((bloom_bits + 7) / 8, 0), .path = run_path(generation),
            .file = nullptr}; // the file opens once the run is renamed into place
    const std::filesystem::path tmp_path = run.path.string() + ".tmp";
    {
        AppendFile out(tmp_path, options_.injector);

        Writer h;
        h.u8(kRunHeader);
        h.u32(kRunVersion);
        h.u64(generation);
        h.u64(count);
        h.u32(kCellsPerBlock);
        h.u64(run.max_tag);
        h.u64(covers_below_gen);
        h.blob(run.meta);
        out.append(frame_record(kRunMagic, h.data()));

        // Cells stream through one data block at a time, so a merge never
        // holds the state it rewrites in memory.
        std::vector<Cell> block;
        block.reserve(kCellsPerBlock);
        const auto write_block = [&] {
            Writer d;
            d.u8(kRunData);
            for (const Cell& cell : block) {
                cell.key.encode(d);
                d.u8(cell.live ? 1 : 0);
                (cell.live ? cell.value : TxOutput{}).encode(d);
            }
            run.index.push_back({block.front().key, out.size(),
                                 static_cast<std::uint32_t>(block.size())});
            out.append(frame_record(kRunMagic, d.data()));
            block.clear();
        };
        std::uint64_t written = 0;
        source([&](const Cell& cell) {
            const auto [h1, h2] = bloom_hashes(cell.key);
            for (std::uint8_t i = 0; i < kBloomProbes; ++i) {
                const std::uint64_t bit = (h1 + i * h2) % run.bloom_bits;
                run.bloom[bit >> 3] |= static_cast<std::uint8_t>(1u << (bit & 7));
            }
            block.push_back(cell);
            if (block.size() == kCellsPerBlock) write_block();
            ++written;
        });
        if (!block.empty()) write_block();
        DLT_INVARIANT(written == count); // the header and bloom are sized by it

        Writer ix;
        ix.u8(kRunIndex);
        ix.varint(run.index.size());
        for (const BlockRef& ref : run.index) {
            ref.first_key.encode(ix);
            ix.u64(ref.offset);
            ix.u32(ref.cells);
        }
        out.append(frame_record(kRunMagic, ix.data()));

        Writer b;
        b.u8(kRunBloom);
        b.u8(kBloomProbes);
        b.u64(run.bloom_bits);
        b.blob(run.bloom);
        out.append(frame_record(kRunMagic, b.data()));

        if (options_.fsync == FsyncMode::kAlways) out.sync();
    }
    std::filesystem::rename(tmp_path, run.path);
    if (options_.fsync == FsyncMode::kAlways) sync_dir(dir_);
    run.file = std::make_unique<RandomAccessFile>(run.path);
    committed_tag_ = run.max_tag;
    committed_meta_ = run.meta;
    runs_.push_back(std::move(run)); // the newest generation: runs_ stays sorted
}

std::shared_ptr<const std::vector<LsmBackend::Cell>> LsmBackend::read_block(
    const Run& run, const BlockRef& block) const {
    const std::uint64_t cache_key = run.generation * 0x100000000ull + block.offset;
    if (auto cached = block_cache_.get(cache_key)) return *cached;

    const std::size_t payload_len = 1 + block.cells * kCellBytes;
    const Bytes frame = run.file->read_at(block.offset, kRecordHeaderSize + payload_len);
    if (frame.size() != kRecordHeaderSize + payload_len)
        throw StorageError("run data block truncated on disk");
    const Bytes payload = read_record(ByteView(frame), 0, kRunMagic);
    Reader r{ByteView(payload)};
    if (r.u8() != kRunData) throw StorageError("run data block has wrong type");
    auto cells = std::make_shared<std::vector<Cell>>();
    cells->reserve(block.cells);
    for (std::uint32_t i = 0; i < block.cells; ++i) {
        Cell cell;
        cell.key = OutPoint::decode(r);
        cell.live = r.u8() != 0;
        cell.value = TxOutput::decode(r);
        cells->push_back(cell);
    }
    r.expect_done();
    std::shared_ptr<const std::vector<Cell>> shared = std::move(cells);
    block_cache_.put(cache_key, shared);
    return shared;
}

std::optional<std::optional<LsmBackend::TxOutput>> LsmBackend::find_in_run(
    const Run& run, const OutPoint& key) const {
    ++run_probes_;
    probes_total_->inc();
    if (!run.bloom_may_contain(key)) {
        ++bloom_skips_;
        bloom_skips_total_->inc();
        return std::nullopt;
    }
    if (run.index.empty()) return std::nullopt;
    // Last block whose first key is <= key.
    auto it = std::upper_bound(
        run.index.begin(), run.index.end(), key,
        [](const OutPoint& k, const BlockRef& b) { return k < b.first_key; });
    if (it == run.index.begin()) return std::nullopt;
    --it;
    const auto cells = read_block(run, *it);
    const auto cell = std::lower_bound(
        cells->begin(), cells->end(), key,
        [](const Cell& c, const OutPoint& k) { return c.key < k; });
    if (cell == cells->end() || !(cell->key == key)) return std::nullopt;
    if (!cell->live) return std::make_optional(std::optional<TxOutput>{});
    return std::make_optional(std::optional<TxOutput>{cell->value});
}

std::optional<LsmBackend::TxOutput> LsmBackend::get(const OutPoint& op) const {
    const auto it = memtable_.find(op);
    if (it != memtable_.end()) return it->second;
    for (auto run = runs_.rbegin(); run != runs_.rend(); ++run)
        if (const auto found = find_in_run(*run, op)) return *found;
    return std::nullopt;
}

bool LsmBackend::insert_if_absent(const OutPoint& op, const TxOutput& out) {
    if (get(op)) return false;
    memtable_[op] = out;
    ++live_size_;
    return true;
}

std::optional<LsmBackend::TxOutput> LsmBackend::put(const OutPoint& op,
                                                    const TxOutput& out) {
    const auto previous = get(op);
    memtable_[op] = out;
    if (!previous) ++live_size_;
    return previous;
}

std::optional<LsmBackend::TxOutput> LsmBackend::erase(const OutPoint& op) {
    const auto previous = get(op);
    if (!previous) return std::nullopt;
    memtable_[op] = std::nullopt; // tombstone shadows older runs
    --live_size_;
    return previous;
}

void LsmBackend::merge_all(const CellSink& emit) const {
    // K-way merge: memtable shadows every run; among runs the highest
    // generation wins. Tombstones suppress older values and are not emitted.
    struct Cursor {
        const Run* run = nullptr;
        std::size_t block = 0;
        std::size_t cell = 0;
        std::shared_ptr<const std::vector<Cell>> cells;
    };
    std::vector<Cursor> cursors;
    cursors.reserve(runs_.size());
    for (const Run& run : runs_)
        if (!run.index.empty()) {
            Cursor c;
            c.run = &run;
            c.cells = read_block(run, run.index[0]);
            cursors.push_back(std::move(c));
        }
    auto mem = memtable_.begin();

    const auto advance = [&](Cursor& c) {
        if (++c.cell < c.cells->size()) return;
        c.cell = 0;
        if (++c.block < c.run->index.size()) {
            c.cells = read_block(*c.run, c.run->index[c.block]);
        } else {
            c.cells.reset(); // exhausted
        }
    };

    for (;;) {
        const OutPoint* min_key = nullptr;
        if (mem != memtable_.end()) min_key = &mem->first;
        for (const Cursor& c : cursors) {
            if (!c.cells) continue;
            const OutPoint& key = (*c.cells)[c.cell].key;
            if (min_key == nullptr || key < *min_key) min_key = &key;
        }
        if (min_key == nullptr) break;
        const OutPoint key = *min_key;

        // Newest source holding `key` wins: memtable, then highest generation
        // (cursors are ordered oldest generation first).
        bool live = false;
        bool from_mem = false;
        TxOutput value;
        if (mem != memtable_.end() && mem->first == key) {
            live = mem->second.has_value();
            if (live) value = *mem->second;
            from_mem = true;
            ++mem;
        }
        for (Cursor& c : cursors) {
            if (!c.cells) continue;
            const Cell& cell = (*c.cells)[c.cell];
            if (!(cell.key == key)) continue;
            if (!from_mem) { // higher generations overwrite lower ones
                live = cell.live;
                value = cell.value;
            }
            advance(c);
        }
        if (live) emit({key, true, value});
    }
}

void LsmBackend::for_each(const Visitor& visit) const { for_each_sorted(visit); }

void LsmBackend::for_each_sorted(const Visitor& visit) const {
    merge_all([&](const Cell& cell) { visit(cell.key, cell.value); });
}

void LsmBackend::update_gauges() const {
    auto& registry = obs::MetricsRegistry::global();
    registry
        .gauge("state_memtable_bytes",
               "Approximate bytes resident in the state-engine memtable")
        .set(static_cast<double>(memtable_.size() * kCellBytes));
    registry.gauge("state_runs", "Live sorted-run files of the state engine")
        .set(static_cast<double>(runs_.size()));
}

void LsmBackend::commit_batch(std::uint64_t tag, ByteView meta) {
    // The batch becomes durable with the next run written; until then the
    // caller's own log covers it.
    batch_tag_ = tag;
    batch_meta_ = Bytes(meta.begin(), meta.end());

    // Maintenance runs only here and in flush(), at commit boundaries, so the
    // on-disk layout is a pure function of the commit sequence —
    // deterministic at any DLT_THREADS.
    if (memtable_.size() >= options_.memtable_limit) {
        if (runs_.size() + 1 >= options_.compact_trigger) {
            compact();
        } else {
            flush_memtable();
        }
    }
    update_gauges();
}

void LsmBackend::flush() {
    // Never a compaction: a flush on close or at a snapshot writes one
    // memtable's worth, and the full merge waits for the next commit that
    // fills the memtable.
    if (memtable_.empty() && batch_tag_ == committed_tag_) return;
    flush_memtable();
    update_gauges();
}

void LsmBackend::flush_memtable() {
    const std::uint64_t cells = memtable_.size();
    write_run(
        cells,
        [this](const CellSink& emit) {
            for (const auto& [key, value] : memtable_)
                emit({key, value.has_value(), value.value_or(TxOutput{})});
        },
        next_generation_++, 0);
    memtable_.clear();
    ++flushes_;
    auto& registry = obs::MetricsRegistry::global();
    registry.counter("state_runs_flushed_total", "Memtable flushes to sorted runs")
        .inc();
    registry
        .counter("state_flush_bytes_total", "Cell bytes written by memtable flushes")
        .inc(cells * kCellBytes);
}

void LsmBackend::compact() {
    // Full merge of memtable + every run into one run that supersedes every
    // older generation. Because the merge covers the whole key space,
    // tombstones have nothing left to shadow and are dropped.
    std::uint64_t bytes_in = memtable_.size() * kCellBytes;
    for (const Run& run : runs_) bytes_in += run.entry_count * kCellBytes;

    const std::uint64_t generation = next_generation_++;
    write_run(
        live_size_, [this](const CellSink& emit) { merge_all(emit); }, generation,
        generation);
    // A crash (or I/O failure) inside write_run leaves the old runs the
    // truth; past it, they are superseded.
    for (auto run = runs_.begin(); run + 1 != runs_.end(); ++run) {
        run->file.reset();
        std::error_code ec;
        std::filesystem::remove(run->path, ec);
    }
    runs_.erase(runs_.begin(), runs_.end() - 1);
    block_cache_.clear();
    memtable_.clear();
    ++compactions_;
    auto& registry = obs::MetricsRegistry::global();
    registry.counter("state_compactions_total", "Full state-engine merges").inc();
    registry
        .counter("state_compaction_bytes_in_total", "Cell bytes read by compactions")
        .inc(bytes_in);
    registry
        .counter("state_compaction_bytes_out_total",
                 "Cell bytes written by compactions")
        .inc(live_size_ * kCellBytes);
}

std::unique_ptr<ledger::StateBackend> LsmBackend::clone() const {
    auto copy = std::make_unique<ledger::ShardedMemoryBackend>();
    for_each_sorted([&](const OutPoint& op, const TxOutput& out) {
        copy->insert_if_absent(op, out);
    });
    return copy;
}

LsmBackend::Stats LsmBackend::stats() const {
    Stats s;
    s.runs = runs_.size();
    s.memtable_entries = memtable_.size();
    s.flushes = flushes_;
    s.compactions = compactions_;
    s.run_probes = run_probes_;
    s.bloom_skips = bloom_skips_;
    return s;
}

} // namespace dlt::storage
