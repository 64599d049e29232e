#!/bin/sh
# Non-vacuity check for the static rules rustc and clippy enforce: the
# clippy.toml lists, the crate-level denies and `#[expect(.., reason)]` as
# the only suppression (README, "Static analysis").
#
# Plants one violation per rule into a real crate as compiling code,
# expects `cargo clippy -p <crate> -- -D warnings` to reject it with that
# rule's diagnostic, and restores the file. A clean workspace run comes
# first. Every run also fails the script when clippy says a clippy.toml
# path "does not refer to a reachable" item: clippy only warns about that,
# and a mistyped path bans nothing.
#
# Usage: tools/clippy_seeded.sh   (exit 0: every plant rejected)
set -u
cd "$(dirname "$0")/.."

log=$(mktemp)
backup=$(mktemp)
target=
restore() {
    if [ -n "$target" ]; then
        cp "$backup" "$target"
        target=
    fi
}
trap 'restore; rm -f "$log" "$backup"' EXIT
trap 'exit 1' INT TERM
status=0

unresolved() {
    if grep -q "does not refer to a reachable" "$log"; then
        grep -A3 "does not refer to a reachable" "$log"
        status=1
    fi
}

# plant FILE: back FILE up; the caller then edits it.
plant() {
    target=$1
    cp "$target" "$backup"
}

# expect PACKAGE DIAGNOSTIC: clippy must reject the planted file with a
# message containing DIAGNOSTIC; then the file is restored.
expect() {
    if cargo clippy -q -p "$1" -- -D warnings >"$log" 2>&1; then
        echo "clippy_seeded: $1 accepted a planted violation ($2)"
        status=1
    elif grep -qF -- "$2" "$log"; then
        echo "clippy_seeded: $1 rejects it: $2"
    else
        echo "clippy_seeded: $1 failed, but not with \"$2\":"
        cat "$log"
        status=1
    fi
    unresolved
    restore
}

if ! cargo clippy -q --workspace --all-targets -- -D warnings >"$log" 2>&1; then
    cat "$log"
    echo "clippy_seeded: the unplanted workspace is not clippy-clean"
    exit 1
fi
unresolved

plant crates/sim/src/lib.rs
echo 'pub fn seeded() -> std::collections::HashMap<u8, u8> { Default::default() }' >>"$target"
expect flexitrust-sim 'disallowed type `std::collections::HashMap`'

plant crates/protocol/src/lib.rs
echo 'pub fn seeded() -> std::time::Instant { std::time::Instant::now() }' >>"$target"
expect flexitrust-protocol 'disallowed type `std::time::Instant`'

plant crates/protocol/src/host.rs
echo 'pub fn seeded() { std::thread::sleep(std::time::Duration::ZERO) }' >>"$target"
expect flexitrust-protocol 'disallowed method `std::thread::sleep`'

# `types` has no `rand` dependency; `crypto` holds the one real OsRng use.
plant crates/crypto/src/lib.rs
echo 'pub fn seeded() -> rand::rngs::OsRng { rand::rngs::OsRng::new() }' >>"$target"
expect flexitrust-crypto 'disallowed type `rand::rngs::OsRng`'

plant crates/runtime/src/lib.rs
echo 'pub fn seeded(bytes: &[u8]) -> Vec<u8> { bytes.to_vec() }' >>"$target"
expect flexitrust-runtime 'disallowed method `slice::to_vec`'

plant crates/exec/src/lib.rs
echo 'pub fn seeded(x: Option<u8>) -> u8 { x.unwrap() }' >>"$target"
expect flexitrust-exec 'used `unwrap()`'

plant crates/sim/src/workload.rs
echo 'pub fn seeded() { println!("seeded"); }' >>"$target"
expect flexitrust-sim 'use of `println!`'

# The engine's two state-transfer arms folded into a trailing wildcard.
plant crates/protocol/src/family.rs
sed -i -e '/Message::CheckpointRequest { last_executed } => {/,+7c\            _ => {}' \
    "$target"
expect flexitrust-protocol 'wildcard match will also match any future added variants'

# The codec's two state-transfer arms folded into a trailing wildcard: that
# one match gives a new variant both its bytes and its size.
plant crates/wire/src/codec.rs
sed -i -e '/^        Message::CheckpointRequest { .. } => {}$/,+9c\        _ => {}' \
    "$target"
expect flexitrust-wire 'wildcard match will also match any future added variants'

# A second lock beside the submission cache: each lock is named once,
# under an #[expect] that says what it is held across.
plant crates/runtime/src/tcp.rs
sed -i -e 's/^    submit_streams: SubmitStreams,$/&\n    seeded: std::sync::Mutex<u8>,/' \
    -e 's/^ *submit_streams: SubmitStreams::new(BTreeMap::new()),$/&\nseeded: std::sync::Mutex::new(0),/' \
    "$target"
expect flexitrust-runtime 'disallowed type `std::sync::Mutex`'

# A guard held across a blocking channel send.
plant crates/exec/src/queue.rs
cat >>"$target" <<'EOF'
fn seeded(m: &std::sync::Mutex<u8>, tx: &std::sync::mpsc::Sender<Batch>) {
    let _guard = m.lock();
    let _ = tx.send(Batch::noop(1));
}
EOF
expect flexitrust-exec 'disallowed type `std::sync::Mutex`'

# A discarded try_send result (rustc's unused_must_use misses `_ =`).
plant crates/runtime/src/tcp.rs
echo 'fn seeded(tx: &Sender<Outbound>, o: Outbound) { _ = tx.try_send(o); }' >>"$target"
expect flexitrust-runtime 'disallowed method `crossbeam::channel::Sender::try_send`'

# Panics execution or a peer's bytes could reach.
plant crates/exec/src/queue.rs
echo 'impl ExecutedBatch { fn seeded(&self) -> &TxnOutcome { &self.outcomes[0] } }' >>"$target"
expect flexitrust-exec 'indexing may panic'

plant crates/wire/src/codec.rs
echo 'pub(crate) fn decode_seeded(bytes: &[u8]) -> u8 { *bytes.first().unwrap() }' >>"$target"
expect flexitrust-wire 'used `unwrap()`'

# An index into the reply decoder's fixed head, which is read as one
# chunk: the fixed layout stays under the crate's indexing deny.
plant crates/wire/src/frame.rs
sed -i 's/^pub(crate) fn decode_reply(frame: &\[u8\]) -> Result<ClientReply, WireError> {$/&\n    let _speculative = frame[41];/' \
    "$target"
expect flexitrust-wire 'indexing may panic'

# A narrowing cast of a length on a decode path.
plant crates/wire/src/codec.rs
echo 'pub(crate) fn decode_seeded(bytes: &[u8]) -> u32 { bytes.len() as u32 }' >>"$target"
expect flexitrust-wire 'casting `usize` to `u32` may truncate'

# A clock value put into a message.
plant crates/runtime/src/cluster.rs
cat >>"$target" <<'EOF'
fn seeded() -> flexitrust_protocol::Message {
    let started = Instant::now();
    flexitrust_protocol::Message::CheckpointRequest {
        last_executed: flexitrust_types::SeqNum(started.elapsed().as_secs()),
    }
}
EOF
expect flexitrust-runtime 'disallowed type `std::time::Instant`'

# The public surface: a `pub` item that the crate root does not re-export
# (unreachable_pub), and a crate-private item that nothing calls (dead_code).
plant crates/sim/src/queue.rs
echo 'pub fn seeded() {}' >>"$target"
expect flexitrust-sim 'unreachable `pub` item'

plant crates/protocol/src/batcher.rs
echo 'pub(crate) fn seeded() {}' >>"$target"
expect flexitrust-protocol 'function `seeded` is never used'

# Suppressions: a stale #[expect], a bare #[allow], a reasonless #[expect].
plant crates/protocol/src/messages.rs
cat >>"$target" <<'EOF'
#[expect(clippy::unwrap_used, reason = "seeded: nothing below unwraps")]
fn seeded() {}
EOF
expect flexitrust-protocol 'this lint expectation is unfulfilled'

plant crates/protocol/src/messages.rs
cat >>"$target" <<'EOF'
#[allow(dead_code, reason = "seeded: an allow where an expect belongs")]
fn seeded() {}
EOF
expect flexitrust-protocol '#[allow] attribute found'

plant crates/protocol/src/messages.rs
cat >>"$target" <<'EOF'
#[expect(dead_code)]
fn seeded() {}
EOF
expect flexitrust-protocol 'without specifying a reason'

exit $status
