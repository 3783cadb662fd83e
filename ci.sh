#!/usr/bin/env sh
# Continuous-integration gate for the neural-ner workspace.
#
# Runs the same checks as .github/workflows/ci.yml:
#   1. formatting       (cargo fmt --check, rustfmt.toml style)
#   2. lints            (cargo clippy --workspace, warnings are errors)
#      + docs           (cargo doc --no-deps, rustdoc warnings are errors)
#   3. tier-1 tests     (release build + full test suite, serial and at
#      4 threads — the parallel paths must not change results — and once
#      more at NER_SIMD=off so forced-scalar kernels reproduce the same
#      bits the default SIMD level produced; ner-tensor's backend tests and
#      ner-core's train_parity and plan_parity also run at NER_SIMD=sse2,
#      because the packed training forward and the trainer's dev
#      evaluation (whose F1 drives early stopping and best-model restore)
#      run the same SIMD-dispatched fused kernels and LSTM/GRU sweeps as
#      serving, and the middle level must keep those bits too.
#      train_parity pins the batched trainer's loss curve (f64 bits per
#      epoch), final weights and F1 to the one-tape-per-sentence oracle
#      trainer::train_tape, over every zoo preset and wide BiLSTM-CRF
#      buckets; plan_parity pins the packed forward's predictions to the
#      tape, one sentence at a time and in buckets, warm and refreshed)
#   4. kernel smoke     (exp_kernels --smoke exits non-zero on any
#      blocked/SIMD/parallel-vs-naive kernel divergence, run at both the
#      default SIMD level and NER_SIMD=off; it writes only results/, so
#      the committed BENCH_kernels.json is left alone)
#   5. prometheus lint  (the /metrics exposition must have typed, unique
#      families with cumulative histogram buckets)
#   6. serving smoke    (serve integration tests — including batched
#      replies byte-identical to offline annotate at max_batch 1 to 32,
#      the request tracing, flight-recorder, batch-formation, slow-client,
#      shutdown-race and 1 MiB string body suites — + exp_serving --smoke
#      at 1 and 4 threads: its overload-and-recovery soak drives the server
#      into SLO shedding, hot-reloads it under load, fires a just-under-1 MiB
#      JSON string body at it mid-sustain, and drains it, exiting non-zero
#      if a batched response diverges from offline annotate, an accepted
#      request is lost, the large body is not refused with a 400 inside the
#      request deadline, or the server fails to recover after overload).
#      Poll shards block until woken, so a lost wake-up would hang rather
#      than fail: each of these commands runs under `timeout 600`)
#   7. benchmark build  (perfbench's own package: it builds against the
#      workspace crates by path, and its plumbing tests run, so an API
#      change in ner-core/ner-tensor that breaks the benchmark fails here)
#
# The build is fully offline: every external dependency is a vendored stub
# under compat/, so no network access is required.
set -eu

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny rustdoc warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

echo "== tier-1: release build + tests (NER_THREADS=1) =="
cargo build --release
NER_THREADS=1 cargo test -q

echo "== tier-1: tests again on the parallel paths (NER_THREADS=4) =="
NER_THREADS=4 cargo test -q

echo "== tier-1: tests with SIMD forced off (NER_SIMD=off, NER_THREADS=1) =="
NER_SIMD=off NER_THREADS=1 cargo test -q

echo "== tier-1: tests with SIMD forced off (NER_SIMD=off, NER_THREADS=4) =="
NER_SIMD=off NER_THREADS=4 cargo test -q

echo "== tier-1: tensor backends + training and prediction parity at the middle SIMD level (NER_SIMD=sse2) =="
NER_SIMD=sse2 cargo test --release -p ner-tensor -q
NER_SIMD=sse2 cargo test --release -p ner-core --test train_parity -q
NER_SIMD=sse2 cargo test --release -p ner-core --test plan_parity -q

echo "== kernel smoke: blocked/SIMD/parallel must match the naive oracle =="
cargo run --release -p ner-bench --bin exp_kernels -- --smoke

echo "== kernel smoke again with SIMD forced off (NER_SIMD=off) =="
NER_SIMD=off cargo run --release -p ner-bench --bin exp_kernels -- --smoke

echo "== prometheus lint: /metrics families must be typed, unique, cumulative =="
cargo test --release -p ner-serve --lib -q prometheus

echo "== serving: poll-loop integration + exp_serving soak (overload, reload, large body, recovery; NER_THREADS=1) =="
NER_THREADS=1 timeout 600 cargo test --release -p ner-serve --test serve_integration -q
NER_THREADS=1 timeout 600 cargo run --release -p ner-bench --bin exp_serving -- --smoke

echo "== serving: poll-loop integration + exp_serving soak (overload, reload, large body, recovery; NER_THREADS=4) =="
NER_THREADS=4 timeout 600 cargo test --release -p ner-serve --test serve_integration -q
NER_THREADS=4 timeout 600 cargo run --release -p ner-bench --bin exp_serving -- --smoke

echo "== benchmark: perfbench builds against the workspace and its plumbing tests pass =="
cargo test --offline --release --manifest-path perfbench/Cargo.toml

echo "CI OK"
