"""Reduce the perfbench binary's raw samples to the benchmark's metrics.

The C++ binary measures and prints raw samples; everything here is pure
arithmetic on them, so test_report.py can check it without a build.
"""
import json
import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


# --- Percentiles -----------------------------------------------------------------

def rank(n, q):
    """1-based nearest rank of the q-quantile (0 < q <= 1) among n samples."""
    if n <= 0:
        raise ValueError("no samples")
    # The epsilon keeps 0.55 * 100 (55.00000000000001 in binary) at rank 55.
    return min(n, max(1, math.ceil(q * n - 1e-9)))


def samples_beyond(n, q):
    """Samples ranked strictly above the reported q-quantile."""
    return n - rank(n, q)


def percentile(values, q):
    """Nearest-rank q-quantile of `values`; refuses a tail the sample cannot
    support (fewer than MIN_BEYOND samples beyond it)."""
    n = len(values)
    if q < 1 and q > 0.5 and samples_beyond(n, q) < MIN_BEYOND:
        raise ValueError(f"{n} samples cannot support the {q} quantile")
    return sorted(values)[rank(n, q) - 1]


# --- Windows ------------------------------------------------------------------------

def offered_window(due_s, late_s):
    """Seconds from the window's open until the last request actually left.

    Drain polling after the last request is never part of it, so a rate over
    this window falls below the offered rate only when the system falls
    behind, not because the harness waited for stragglers."""
    if not due_s or len(due_s) != len(late_s):
        raise ValueError("need one lateness per due time")
    return max(d + l for d, l in zip(due_s, late_s))


def rate(count, window_s):
    if window_s <= 0:
        raise ValueError("empty window")
    return count / window_s


# --- Failure accounting -------------------------------------------------------------

def cluster_failures(attempted, accepted, distinct, node_confirmed):
    """Failures of one cluster window, counted against `attempted`.

    A failure is a refused or errored submit, an accepted transaction still
    unconfirmed after the drain, or a transaction confirmed more than once
    (a node's confirmed count above the distinct confirmations)."""
    refused = attempted - accepted
    unconfirmed = max(0, accepted - distinct)
    duplicates = max([0] + [c - distinct for c in node_confirmed])
    return {"attempted": attempted, "refused": refused, "unconfirmed": unconfirmed,
            "duplicates": duplicates,
            "failed": refused + unconfirmed + duplicates}


def sim_failures(offered, runs):
    """Failures of simulated runs that each offered `offered` records, given
    (distinct confirmed, included) per run: records never confirmed on peer
    0's chain, plus extra inclusions of records already on it."""
    unconfirmed = sum(offered - distinct for distinct, _ in runs)
    duplicates = sum(included - distinct for distinct, included in runs)
    return {"attempted": offered * len(runs), "unconfirmed": unconfirmed,
            "duplicates": duplicates, "failed": unconfirmed + duplicates}


# --- Obs snapshots ------------------------------------------------------------------

def parse_snapshot(snapshot):
    """An obs::MetricsRegistry JSON snapshot, as text or already decoded."""
    if snapshot is None:
        raise ValueError("missing obs snapshot")
    data = json.loads(snapshot) if isinstance(snapshot, str) else snapshot
    if not isinstance(data, dict):
        raise ValueError("obs snapshot is not a JSON object")
    return data


def counter(snapshot, name):
    """Sum of a counter over all its label children (`name{k="v"}` keys)."""
    total = 0
    for key, value in parse_snapshot(snapshot).items():
        if (key == name or key.startswith(name + "{")) and \
                isinstance(value, (int, float)):
            total += value
    return total


def labeled(snapshot, name, **labels):
    """One labeled child of a family, 0 when absent."""
    suffix = ",".join(f'{k}="{v}"' for k, v in labels.items())
    value = parse_snapshot(snapshot).get(f"{name}{{{suffix}}}", 0)
    return value if isinstance(value, (int, float)) else 0


def delta(before, after, name, **labels):
    """Counter growth summed over nodes (lists of snapshots, one per node)."""
    read = (lambda s: labeled(s, name, **labels)) if labels else \
        (lambda s: counter(s, name))
    return sum(read(a) - read(b) for b, a in zip(before, after))


def ratio(num, den):
    return num / den if den else 0.0


# --- Metrics ------------------------------------------------------------------------

def ms(seconds):
    return seconds * 1e3


def cluster_metrics(raw):
    """End-to-end metrics, failures and checks of one untraced cluster window."""
    distinct = len(raw["confirm_s"])
    fails = cluster_failures(raw["attempted"], raw["accepted"], distinct,
                             raw["confirmed"])
    window = offered_window(raw["due_s"], raw["late_s"])
    metrics = {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "confirmed_tps": (rate(distinct, window), "1/s"),
        "confirm_p50_ms": (ms(percentile(raw["confirm_s"], 0.50)), "ms"),
        "confirm_p99_ms": (ms(percentile(raw["confirm_s"], 0.99)), "ms"),
        "cpu_us_per_tx": (1e6 * rate(raw["cpu_s"], distinct), "us"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MiB"),
    }
    checks = {
        "tips_agree": raw["tips_agree"],
        "clean_exits": all(code == 0 for code in raw["exit_codes"]),
        "every_node_confirmed_every_accepted":
            all(c == raw["accepted"] for c in raw["confirmed"]),
    }
    samples = {"confirm": distinct, "submit": len(raw["submit_s"]),
               "setup": len(raw["setup_s"]), "spawn_retries": raw["spawn_retries"],
               "window_s": window, "drain_s": raw["drain_s"]}
    return metrics, fails, checks, samples


def first_per_network(raw, reps):
    """The first repetition on each network, among `reps`."""
    seen, out = set(), []
    for i in reps:
        if raw["networks"][i] not in seen:
            seen.add(raw["networks"][i])
            out.append(i)
    return out


def repeats_identical(raw, key):
    """Repetitions on the same network agree exactly on `key`."""
    by_network = {}
    for network, value in zip(raw["networks"], raw[key]):
        by_network.setdefault(network, set()).add(str(value))
    return all(len(values) == 1 for values in by_network.values())


def sim_metrics(raw):
    """End-to-end metrics, failures and checks of the untraced sim repetitions.

    Virtual-time outputs are exact-match checks between repetitions on the
    same network; the metrics are host wall and CPU time, as medians over
    the repetitions. Each network counts once towards the failures."""
    reps = [i for i, t in enumerate(raw["traced"]) if not t]
    networks = first_per_network(raw, reps)
    fails = sim_failures(raw["attempted"],
                         [(raw["distinct"][i], raw["included"][i]) for i in networks])
    med = statistics.median
    metrics = {
        "setup_s": (med(raw["setup_s"][i] for i in reps), "s"),
        "confirmed_tps": (med(rate(raw["distinct"][i], raw["wall_s"][i]) for i in reps),
                          "1/s"),
        "confirm_p50_ms": (med(ms(percentile(raw[f"confirm_s_{i}"], 0.50)) for i in reps), "ms"),
        "confirm_p99_ms": (med(ms(percentile(raw[f"confirm_s_{i}"], 0.99)) for i in reps), "ms"),
        "cpu_us_per_tx": (med(1e6 * rate(raw["cpu_s"][i], raw["distinct"][i]) for i in reps),
                          "us"),
        "peak_rss_mb": (med(raw["peak_rss_kb"][i] for i in reps) / 1024.0, "MiB"),
    }
    checks = {f"{key}_repeat_identically": repeats_identical(raw, key)
              for key in ("tips", "distinct", "included", "reorgs", "stale", "events")}
    checks["some_network_repeats"] = len(set(raw["networks"])) < len(raw["networks"])
    samples = {"confirm": [len(raw[f"confirm_s_{i}"]) for i in reps],
               "reps": len(reps), "networks": len(networks)}
    return metrics, fails, checks, samples


# --- Per-layer metrics (traced runs) ----------------------------------------------

# Replayed stages of one block on the primary, in pipeline order.
BLOCK_STAGES = ("template_select", "utxo_copy", "template_apply", "block_check",
                "connect_block", "remove_confirmed")
REQUEST_STAGES = ("rpc_decode", "mempool_admit", "frame_encode")


def mean(values):
    return statistics.fmean(values) if values else 0.0


def largest_block_stage(replay):
    """(stage, share of the primary's replayed busy time) of the per-block
    stage with the most total time. Busy time covers every replayed call on
    the primary's path: per-request decode, admission and relay encode, and
    the per-block stages."""
    totals = {s: sum(replay[f"{s}_s"]) for s in BLOCK_STAGES + REQUEST_STAGES}
    busy = sum(totals.values())
    stage = max(BLOCK_STAGES, key=lambda s: totals[s])
    return stage, ratio(totals[stage], busy)


def cluster_layers(raw):
    """Per-layer metrics of a traced cluster run: the stage replay, the
    daemons' obs counters over the traced window, and the generator."""
    replay = raw["replay"]
    before, after = raw["traced_obs_before"], raw["traced_obs_after"]
    distinct = len(raw["traced_confirm_s"])
    d = lambda name, **labels: delta(before, after, name, **labels)  # noqa: E731
    stage, share = largest_block_stage(replay)
    untraced_wall = offered_window(raw["due_s"], raw["late_s"]) + raw["drain_s"]
    traced_wall = offered_window(raw["traced_due_s"], raw["traced_late_s"]) + \
        raw["traced_drain_s"]
    layers = {
        "core.rpc_decode_us": 1e6 * mean(replay["rpc_decode_s"]),
        "core.connect_block_ms": 1e3 * mean(replay["connect_block_s"]),
        "ledger.mempool_admit_us": 1e6 * mean(replay["mempool_admit_s"]),
        "ledger.admissions_per_tx": ratio(d("mempool_admission_total"), distinct),
        "ledger.template_select_us": 1e6 * mean(replay["template_select_s"]),
        "ledger.utxo_copy_ms": 1e3 * mean(replay["utxo_copy_s"]),
        "ledger.template_apply_us": 1e6 * mean(replay["template_apply_s"]),
        "ledger.block_check_us": 1e6 * mean(replay["block_check_s"]),
        "ledger.remove_confirmed_us": 1e6 * mean(replay["remove_confirmed_s"]),
        "crypto.sig_verifies_per_tx": ratio(d("sigcache_misses_total"), distinct),
        "crypto.sigcache_hit_ratio": ratio(
            d("sigcache_hits_total"),
            d("sigcache_hits_total") + d("sigcache_misses_total")),
        "storage.blockstore_append_us": 1e6 * mean(replay["blockstore_append_s"]),
        "storage.wal_append_us": 1e6 * mean(replay["wal_append_s"]),
        "storage.state_commit_ms": 1e3 * mean(replay["state_commit_s"]),
        "storage.state_flush_bytes_per_tx": ratio(d("state_flush_bytes_total"), distinct),
        "storage.state_compactions": d("state_compactions_total"),
        "storage.state_run_probes_per_tx": ratio(d("state_run_probes_total"), distinct),
        "storage.state_bloom_skip_ratio": ratio(d("state_bloom_skips_total"),
                                                d("state_run_probes_total")),
        "storage.wal_bytes_per_block": ratio(d("wal_bytes_appended_total"),
                                             d("wal_appends_total")),
        "net.tcp_bytes_per_tx": ratio(d("net_tcp_bytes_sent_total"), distinct),
        "net.tcp_frames_per_tx": ratio(d("net_tcp_frames_sent_total"), distinct),
        "net.tcp_send_drops": d("net_tcp_send_drops_total"),
        "net.frame_encode_us": 1e6 * mean(replay["frame_encode_s"]),
        "app.submit_p50_ms": ms(percentile(raw["submit_s"], 0.50)),
        "app.submit_p99_ms": ms(percentile(raw["submit_s"], 0.99)),
        "app.generator_late_p99_ms": ms(percentile(raw["late_s"], 0.99)),
        "obs.trace_overhead_pct": 100.0 * (traced_wall / untraced_wall - 1.0),
        "replay.largest_stage_share_pct": 100.0 * share,
    }
    notes = [f"largest per-block stage: {stage} "
             f"({100.0 * share:.1f}% of the primary's replayed busy time, "
             f"{replay['blocks']} blocks, {replay['requests']} requests)"]
    return layers, notes


def sim_layers(raw):
    """Per-layer metrics of a traced sim run: the traced repetition's obs
    counters, exact virtual-time counts, and the signature replay."""
    traced = [i for i, t in enumerate(raw["traced"]) if t]
    plain = [i for i, t in enumerate(raw["traced"]) if not t]
    last = traced[-1]
    before, after = [raw["obs_before"]], [raw["obs_after"]]
    d = lambda name, **labels: delta(before, after, name, **labels)  # noqa: E731
    distinct = raw["distinct"][last]
    sig_s = ratio(raw["replay_verify_s"], raw["replay_sigs"])
    untraced_wall = statistics.median(raw["wall_s"][i] for i in plain)
    traced_wall = statistics.median(raw["wall_s"][i] for i in traced)
    ecdsa_share = ratio(sig_s * d("sigcache_misses_total"), untraced_wall)
    dedup, accepts = d("gossip_dedup_hits_total"), d("gossip_accepts_total")
    layers = {
        "crypto.sig_verify_us": 1e6 * sig_s,
        "crypto.sig_verifies_per_tx": ratio(d("sigcache_misses_total"), distinct),
        "crypto.sigcache_hit_ratio": ratio(
            d("sigcache_hits_total"),
            d("sigcache_hits_total") + d("sigcache_misses_total")),
        "crypto.ecdsa_wall_share_pct": 100.0 * ecdsa_share,
        "net.sim_messages_per_tx": ratio(d("net_messages_total", kind="sent"), distinct),
        "net.gossip_dedup_ratio": ratio(dedup, dedup + accepts),
        "sim.events_per_tx": ratio(raw["events"][last], distinct),
        "consensus.reorgs": raw["reorgs"][last],
        "consensus.stale_rate": ratio(raw["stale"][last],
                                      d("consensus_blocks_mined_total")),
        "consensus.duplicate_inclusions": raw["included"][last] - distinct,
        "app.submit_p50_ms": statistics.median(
            ms(percentile(raw[f"submit_s_{i}"], 0.50)) for i in plain),
        "app.submit_p99_ms": statistics.median(
            ms(percentile(raw[f"submit_s_{i}"], 0.99)) for i in plain),
        "obs.trace_overhead_pct": 100.0 * (traced_wall / untraced_wall - 1.0),
    }
    notes = [f"ECDSA share of sim wall time: {100.0 * ecdsa_share:.1f}% "
             f"({raw['replay_sigs']} signatures replayed cold, "
             f"{1e6 * sig_s:.1f} us each)"]
    return layers, notes
