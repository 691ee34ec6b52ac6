#!/usr/bin/env bash
# The benchmark's one command: build the program and the harness from
# source (both release), then hand every argument to the harness.
#
#   bench/run.sh --workload hub_warm --seed 1 --seconds 20 --trace 0
#   bench/run.sh run --seeds 1,2,3
#   bench/run.sh smoke | selfcheck | fixtures --check | compare A.json B.json
set -euo pipefail
cd "$(dirname "$0")/.."

# With CARGO_TARGET_DIR set, both workspaces build into it; without, each
# builds into its own target directory.
program_target="${CARGO_TARGET_DIR:-target}"
harness_target="${CARGO_TARGET_DIR:-bench/target}"

cargo build --release --quiet -p neurovectorizer --bin nvc >&2
cargo build --release --quiet --manifest-path bench/Cargo.toml >&2

NVC_BIN="$program_target/release/nvc" exec "$harness_target/release/bench" "$@"
