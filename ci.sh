#!/usr/bin/env sh
# Tier-1 verification: build, test, lint — one reproducible command.
# Works fully offline (proptest is a path-dep shim under crates/).
set -eux

cargo build --release
cargo test -q
# `cargo test -q` at the root runs every workspace crate (the root
# `Cargo.toml` sets `default-members`) in debug; the same suites run again
# here in release, where the full-stack ones are 10-50x faster. Release
# also runs the tests marked `cfg_attr(debug_assertions, ignore)`: the
# Viterbi waterfall test (quantised decoder within 0.25 dB of the f64
# oracle at BER 1e-3, MCS 0/5/7) is one.
cargo test -q --release --workspace
cargo clippy --workspace --all-targets -- -D warnings

# Formatting ratchet: crates listed here are rustfmt-clean and must stay
# so. Add a crate once it has been formatted in a commit of its own.
cargo fmt --check -p witag-channel
cargo fmt --check -p witag-sim
cargo fmt --check -p witag-mac
cargo fmt --check -p witag-net
cargo fmt --check -p witag
cargo fmt --check -p witag-faults
cargo fmt --check -p witag-cli
cargo fmt --check -p witag-obs

# Rustdoc must build clean: the observability schema and Recorder contract
# live partly in doc comments, so doc warnings are treated as errors.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

# Static-assurance gate: witag-lint walks every workspace source file,
# builds the whole-workspace call graph, and fails (nonzero exit) on any
# per-file finding (determinism / panic-freedom / no_alloc / hygiene) or
# interprocedural finding (transitive no_alloc, panic reachability,
# determinism taint, obs-schema consistency). The committed
# witag-lint/2 JSON artifact must match what the tree produces — a stale
# LINT_report.json fails the drift check below.
cargo run -q --release -p witag-lint -- --threads 1 --json LINT_report.json
python3 -c "
import json
r = json.load(open('LINT_report.json'))
assert r['schema'] == 'witag-lint/2', r['schema']
assert r['findings'] == [], r['findings']
"
git diff --exit-code -- LINT_report.json

# Parallel determinism: the report must be byte-identical no matter how
# many worker threads scanned the files.
cargo run -q --release -p witag-lint -- --threads 4 --json /tmp/witag_lint_t4.json
cmp LINT_report.json /tmp/witag_lint_t4.json

# Perf gate smoke: run the baseline binary in quick mode (tiny iteration
# counts, same code paths) and assert it emits parseable JSON — both the
# PHY baseline and the net_scale fleet sweep. Most thresholds are judged
# by humans against EXPERIMENTS.md § "PERF GATE", but the receive-chain
# speedup is gated here: the quick run (a portable build, like the
# committed one — never compare a portable build against a
# target-cpu=native one) must stay within 30% of the committed value,
# and so must the transmit time, so a kernel regression
# cannot land silently. The 30% slack absorbs quick-mode iteration noise,
# not real regressions.
WITAG_PERF_QUICK=1 WITAG_PERF_OUT=/tmp/witag_perf_smoke.json \
    WITAG_PERF_NET_OUT=/tmp/witag_net_smoke.json \
    cargo run -q --release -p witag-bench --bin perf_gate > /dev/null
python3 -c "import json; json.load(open('/tmp/witag_perf_smoke.json'))"
python3 - <<'EOF'
import json
r = json.load(open('/tmp/witag_perf_smoke.json'))
assert r['schema'] == 'witag-phy-bench-v6', r['schema']
# The channel pass row is checked for presence only: a raw wall-time
# ceiling would fail with the host's drift (ROADMAP item 1).
assert r['phy']['channel_apply_ppdu_1664B_mcs5_ns'] > 0, r['phy']
rows = r['mimo']['rows']
seen = {(row['streams'], row['equaliser']) for row in rows}
for nss in (1, 2, 3):
    for eq in ('zf', 'mmse'):
        assert (nss, eq) in seen, f'missing mimo row {nss}x{nss} {eq}'
for row in rows:
    assert row['receive_mu_256B_per_stream_ns'] > 0, row
print(f"mimo gate: {len(rows)} receive_mu rows — ok")
EOF
python3 - <<'EOF'
import json
r = json.load(open('/tmp/witag_net_smoke.json'))
assert r['schema'] == 'witag-net-scale-v4', r['schema']
assert r['scale'], r
rows = r['metro']['rows']
assert rows, 'quick mode must still exercise the metro engine'
for row in rows:
    assert row['fair_delivered'] > 0, row
    assert row['goodput_ratio'] > 1.0, f"metro scheduling must beat serial polling: {row}"
print(f"net gate: {len(r['scale'])} fleet rows, {len(rows)} metro rows — ok")
EOF
python3 - <<'EOF'
import json
cur = json.load(open('/tmp/witag_perf_smoke.json'))
ref = json.load(open('BENCH_phy.json'))
assert cur['build']['config'] == 'portable', cur['build']
assert ref['build']['config'] == 'portable', ref['build']
committed = ref['speedup_vs_seed']['receive_chain']
measured = cur['speedup_vs_seed']['receive_chain']
assert measured >= 0.7 * committed, (
    f"receive-chain speedup regressed: measured {measured:.2f}x vs "
    f"committed portable {committed:.2f}x (floor {0.7 * committed:.2f}x)")
print(f"perf gate: receive chain {measured:.2f}x vs committed {committed:.2f}x — ok")
# Transmit floor: the same portable-vs-portable rule for the transmit
# chain (1664 B at MCS 5), within 30% of the committed time.
committed = ref['phy']['transmit_1664B_mcs5_ns']
measured = cur['phy']['transmit_1664B_mcs5_ns']
assert measured <= 1.3 * committed, (
    f"transmit regressed: measured {measured:.0f} ns vs committed "
    f"portable {committed:.0f} ns (ceiling {1.3 * committed:.0f} ns)")
print(f"perf gate: transmit {measured:.0f} ns vs committed {committed:.0f} ns — ok")
# Viterbi ceiling: the same rule for the decoder kernel alone (4096 bits
# at rate 1/2), so a kernel slowdown fails here even where the rest of
# the receive chain hides it.
committed = ref['phy']['viterbi_stream_4096_bits_ns']
measured = cur['phy']['viterbi_stream_4096_bits_ns']
assert measured <= 1.3 * committed, (
    f"Viterbi regressed: measured {measured:.0f} ns vs committed "
    f"portable {committed:.0f} ns (ceiling {1.3 * committed:.0f} ns)")
print(f"perf gate: viterbi {measured:.0f} ns vs committed {committed:.0f} ns — ok")
EOF

# Science suite: the paper-facing estimates (FIG5 BER and throughput,
# FIG6 BER and the B - A gap, MOX streams-hit fraction, each kept per
# channel seed and judged by Welch t-tests over the seeds; hostile-fleet
# delivery; the U-shape, scale, ordering and MOX claims) on the seeds fixed in
# crates/bench/src/bin/science.rs, judged row by row against the
# committed SCIENCE.tsv with the results-change protocol
# (EXPERIMENTS.md § "SCIENCE"). A change that moves output bits must
# pass it; the binary exits 1 on any failing row.
cargo run -q --release -p witag-bench --bin science -- --baseline SCIENCE.tsv

# Trace smoke: a parallel sweep streamed to a witag-obs/2 JSONL trace,
# then aggregated by `report`. Asserts the trace carries the schema
# header and that the aggregator sees events (docs/OBS_SCHEMA.md).
cargo run -q --release -p witag-cli -- sweep --from 1 --to 2 --step 1 \
    --rounds 10 --threads 2 --trace /tmp/witag_trace_smoke.jsonl
head -n 1 /tmp/witag_trace_smoke.jsonl | grep -q '"schema":"witag-obs/2"'
cargo run -q --release -p witag-cli -- report /tmp/witag_trace_smoke.jsonl \
    | grep -q 'sweep_point'

# Fleet smoke: a contended multi-tag run under the airtime-fair scheduler,
# traced and then aggregated — the report must see the net.* events.
cargo run -q --release -p witag-cli -- net --clients 2 --tags 8 \
    --scheduler fair --trace /tmp/witag_net_trace_smoke.jsonl
grep -q '"kind":"net.grant"' /tmp/witag_net_trace_smoke.jsonl
cargo run -q --release -p witag-cli -- report /tmp/witag_net_trace_smoke.jsonl \
    | grep -q 'fleet sessions'

# Rateless transport smoke: the same contended fleet over the fountain
# transport. The trace must carry the fountain session events and still
# aggregate cleanly.
cargo run -q --release -p witag-cli -- net --clients 2 --tags 8 \
    --scheduler fair --transport fountain \
    --trace /tmp/witag_fountain_trace_smoke.jsonl
grep -q '"kind":"net.session_done"' /tmp/witag_fountain_trace_smoke.jsonl
cargo run -q --release -p witag-cli -- report /tmp/witag_fountain_trace_smoke.jsonl \
    | grep -q 'fleet sessions'

# Metro smoke: the spatial-cell engine at toy scale. The trace must carry
# the metro-specific kinds (cell topology up front, a budget-epoch close
# per cell) and still aggregate cleanly through `report`.
cargo run -q --release -p witag-cli -- net --cells 4 --readers 4 --tags 200 \
    --duty 0.08 --horizon 10000 --trace /tmp/witag_metro_trace_smoke.jsonl
grep -q '"kind":"net.cell_assign"' /tmp/witag_metro_trace_smoke.jsonl
grep -q '"kind":"net.cell_epoch"' /tmp/witag_metro_trace_smoke.jsonl
cargo run -q --release -p witag-cli -- report /tmp/witag_metro_trace_smoke.jsonl \
    | grep -q 'fleet sessions'

# MOXcatter smoke: the spatial-multiplexing scenario — a streams × distance
# sweep traced to JSONL. The trace must carry the phy.mimo.* family (one
# sound per point, one stream row per spatial stream) and the sweep must
# show the headline effect: at 2 streams the single tag corrupts both
# block-ACK bitmaps.
cargo run -q --release -p witag-cli -- mox --streams 1,2 --from 1 --to 3 \
    --step 1 --threads 2 --trace /tmp/witag_mox_trace_smoke.jsonl
grep -q '"kind":"phy.mimo.sound"' /tmp/witag_mox_trace_smoke.jsonl
grep -q '"kind":"phy.mimo.stream"' /tmp/witag_mox_trace_smoke.jsonl
cargo run -q --release -p witag-cli -- report /tmp/witag_mox_trace_smoke.jsonl \
    | grep -q 'phy.mimo.sound'
python3 - <<'EOF'
import json
hits = {}
for line in open('/tmp/witag_mox_trace_smoke.jsonl'):
    e = json.loads(line)
    if e.get('kind') == 'phy.mimo.sound':
        streams = {}
        hits[e['index']] = (e['streams'], streams)
    elif e.get('kind') == 'phy.mimo.stream':
        hits[e['index']][1][e['stream']] = e['hit']
assert hits, 'mox trace carried no phy.mimo.sound events'
for index, (n, streams) in hits.items():
    assert len(streams) == n, f'point {index}: {len(streams)} stream rows, want {n}'
    if n >= 2:
        assert all(streams.values()), \
            f'point {index}: tag must corrupt every multiplexed stream, got {streams}'
print(f'mox gate: {len(hits)} sweep points — ok')
EOF

# Docs link check: every relative markdown link in the top-level docs and
# docs/ must resolve to a real file — ARCHITECTURE.md, DESIGN.md,
# EXPERIMENTS.md and OBS_SCHEMA.md cross-reference each other heavily and
# a rename must not leave dangling pointers.
python3 - <<'EOF'
import os, re
roots = ['README.md', 'DESIGN.md', 'EXPERIMENTS.md', 'ROADMAP.md'] + \
    [os.path.join('docs', f) for f in sorted(os.listdir('docs')) if f.endswith('.md')]
bad = []
for path in roots:
    text = open(path).read()
    for m in re.finditer(r'\]\(([^)\s]+)\)', text):
        target = m.group(1).split('#')[0]
        if not target or target.startswith(('http://', 'https://', 'mailto:')):
            continue
        resolved = os.path.normpath(os.path.join(os.path.dirname(path), target))
        if not os.path.exists(resolved):
            bad.append(f'{path}: {m.group(1)}')
assert not bad, '\n'.join(bad)
print(f'docs link check: {len(roots)} files ok')
EOF
