#!/usr/bin/env sh
# Offline verification gate: build, test, lint, rustdoc — no network,
# no registry. Run from the repository root.
set -eu

cargo build --release --offline
cargo test -q --offline
cargo clippy --workspace --all-targets --offline -- -D warnings
# Broken or redundant intra-doc links (for example to a deleted type)
# fail the gate instead of lingering as rustdoc warnings.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "verify: OK"
