#!/usr/bin/env bash
# Full quality-gate stack (DESIGN §7).  Everything runs offline against
# the vendored dependency shims.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check (workspace and hostbench) =="
cargo fmt --all -- --check
cargo fmt --manifest-path hostbench/Cargo.toml -- --check

echo "== cargo clippy (deny warnings; workspace and hostbench, whose --locked fails if its lock file would change) =="
cargo clippy --offline --workspace --all-targets -- -D warnings
cargo clippy --offline --locked --manifest-path hostbench/Cargo.toml --all-targets -- -D warnings

echo "== cargo doc (deny warnings: broken intra-doc links and public docs linking private items) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "== cargo test =="
cargo test --offline -q --workspace

echo "== QUDA relation (paper §IV-D3: 3LP-1 beats QUDA recon 18 and the recon orders hold; ignored in debug builds, so it runs here in release) =="
cargo test --offline --release -q --test paper_claims claim_3lp1_beats_quda

echo "== examples (every example, end to end: quickstart validates one launch; traced_solve fails without steady-state memo hits) =="
for example in quickstart cg_solver tuned_solver traced_solve; do
  cargo run --offline --release -q --example "$example"
done

echo "== hostbench unit tests (the benchmark still builds against the workspace API; --locked fails if its lock file would change) =="
cargo test --release --offline --locked -q --manifest-path hostbench/Cargo.toml

echo "== hostbench workloads (each once for a second: the benchmark's own checks, Table I goldens bit for bit, CG validation and the static tuner's winners, gate every CI run) =="
for workload in table1 cg tune-static; do
  cargo run --release --offline --locked -q --manifest-path hostbench/Cargo.toml -- \
    --workload "$workload" --seconds 1 > /dev/null \
    || { echo "hostbench $workload: a check failed or the run did not finish"; exit 1; }
done

# perfdiff diffs the committed results/*.csv against fresh replays, so it
# runs before any step that rewrites one of them (table1 --trace rewrites
# results/table1.csv): run later, it would gate the tree against itself.
echo "== perfdiff (exact gate: table1/fig6/quda_recon/scaling/tune_static CSVs replayed and diffed cell by cell, tuner winners included; warm and cold cost-model drift within tolerance; selftest proves the FAIL paths) =="
cargo run --offline --release -p milc-bench --bin perfdiff -- 16 --fig6 --scaling --static-tune --profile --selftest

echo "== sancheck (sanitizer gate) =="
cargo run --offline --release -p milc-bench --bin sancheck

echo "== staticcheck (static analysis gate: whole-launch proofs + traffic cross-validation) =="
cargo run --offline --release -p milc-bench --bin staticcheck
test -s results/staticcheck.md || { echo "staticcheck did not write the report"; exit 1; }

echo "== tune (autotune smoke: cold sweep writes the cache, warm rerun is 100% hits, static sweeps decide launch-free within 5% of the exhaustive winner) =="
TUNE_SMOKE_CACHE="$(mktemp -d)/tunecache.json"
cargo run --offline --release -p milc-bench --bin tune -- 4 "$TUNE_SMOKE_CACHE"
test -s "$TUNE_SMOKE_CACHE" || { echo "tune smoke did not write the cache"; exit 1; }
rm -rf "$(dirname "$TUNE_SMOKE_CACHE")"

echo "== table1 --trace (timeline + metrics artifacts; every modelled line of the trace must equal the committed one) =="
# The reference comes from git, not the working tree: a failed run or a
# local `table1 --trace` leaves a regenerated trace there.
git show HEAD:results/table1.trace.json > target/table1.trace.committed.json
cargo run --offline --release -p milc-bench --bin table1 -- 16 --trace results/table1.trace.json
test -s results/table1.trace.json || { echo "table1 did not write the trace"; exit 1; }
test -s results/metrics.txt || { echo "table1 did not write the metrics snapshot"; exit 1; }
# Host time (ts, dur, host_wall_us) and the git revision change from run
# to run; every other line is modelled and deterministic.
modelled_lines() { grep -vE '^ *"(ts|dur|host_wall_us|git)": ' "$1"; }
diff <(modelled_lines target/table1.trace.committed.json) <(modelled_lines results/table1.trace.json) \
  || { echo "results/table1.trace.json differs from the committed trace in a modelled line (diff above)"; exit 1; }

echo "== scaling (strong-scaling study; overlapped must beat in-order at every N > 1) =="
SCALING_SMOKE_DIR="$(mktemp -d)"
cargo run --offline --release -p milc-bench --bin scaling -- 16 --check \
  --out "$SCALING_SMOKE_DIR/scaling.csv" --trace "$SCALING_SMOKE_DIR/scaling.trace.json" \
  --cache results/tunecache.json
test -s "$SCALING_SMOKE_DIR/scaling.csv" || { echo "scaling did not write the csv"; exit 1; }
test -s "$SCALING_SMOKE_DIR/scaling.trace.json" || { echo "scaling did not write the trace"; exit 1; }
rm -rf "$SCALING_SMOKE_DIR"

echo "== scaling 10 (a lattice that is not a power of two: the two-rank slabs admit only the sub-warp site block, which the tuner must price statically) =="
SCALING_SMOKE_DIR="$(mktemp -d)"
cargo run --offline --release -p milc-bench --bin scaling -- 10 \
  --out "$SCALING_SMOKE_DIR/scaling.csv" --trace "$SCALING_SMOKE_DIR/scaling.trace.json" \
  --cache "$SCALING_SMOKE_DIR/tunecache.json" \
  || { echo "scaling 10 failed: a rank could not be tuned statically"; exit 1; }
rm -rf "$SCALING_SMOKE_DIR"

echo "== profile (perf-explainability: roofline table, cost-model drift, critical-path/overlap study) =="
cargo run --offline --release -p milc-bench --bin profile -- 16
test -s results/profile.md || { echo "profile did not write the report"; exit 1; }
test -s results/roofline.csv || { echo "profile did not write the roofline csv"; exit 1; }

echo "== collecting artifacts =="
ARTIFACTS_DIR="${ARTIFACTS_DIR:-target/ci-artifacts}"
mkdir -p "$ARTIFACTS_DIR"
cp results/*.trace.json results/metrics.txt results/staticcheck.md \
  results/tune.md results/tune_static.csv \
  results/profile.md results/roofline.csv \
  "$ARTIFACTS_DIR"/
echo "artifacts in $ARTIFACTS_DIR: $(ls "$ARTIFACTS_DIR" | tr '\n' ' ')"

echo "== CI OK =="
