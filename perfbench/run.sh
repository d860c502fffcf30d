#!/usr/bin/env bash
# Builds the release server and the benchmark runner from source, then runs
# one benchmark workload against the server.
#
#   bash perfbench/run.sh --workload dashboard|explore|ingest|bi \
#        --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); per-run scratch and span dumps to .bench_run.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p uu-server --bin uu-server >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

commit="$(git rev-parse HEAD 2>/dev/null || true)"
if [ -z "$commit" ]; then
    # Not a git checkout: identify the sources by content instead.
    commit="src-sha256:$(find crates perfbench/src -name '*.rs' -type f | LC_ALL=C sort \
        | xargs cat Cargo.lock | sha256sum | cut -c1-16)"
fi

exec "$CARGO_TARGET_DIR/release/perfbench" \
    --server "$CARGO_TARGET_DIR/release/uu-server" \
    --rustc "$(rustc --version)" \
    --commit "$commit" \
    "$@"
