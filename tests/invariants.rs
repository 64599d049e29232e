//! Property-based tests over the cross-crate invariants the protocols rely
//! on: trusted-counter monotonicity, attestation unforgeability under
//! arbitrary tampering, deterministic execution, and consensus safety of
//! Flexi-BFT under arbitrary message reorderings.

use flexitrust::crypto::make_batch;
use flexitrust::prelude::*;
use flexitrust::protocol::{Message, Outbox};
use flexitrust::trusted::{AttestationMode, Enclave, EnclaveConfig, EnclaveRegistry};
use flexitrust::types::{Digest, KvOp};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The trusted counter never reuses or decreases a value, no matter how
    /// the host interleaves `append`, `append_f` and `create`.
    #[test]
    fn trusted_counter_values_never_repeat(ops in proptest::collection::vec(0u8..3, 1..60)) {
        let enclave = Enclave::shared(EnclaveConfig::counter_only(ReplicaId(0), AttestationMode::Counting));
        let mut last = 0u64;
        let mut proposed = last;
        for op in ops {
            match op {
                0 => {
                    if let Ok((value, _)) = enclave.append_f(0, Digest::from_u64_tag(1)) {
                        prop_assert!(value > last);
                        last = value;
                    }
                }
                1 => {
                    proposed += 2;
                    if let Ok(att) = enclave.append(0, proposed, Digest::from_u64_tag(2)) {
                        prop_assert!(att.value > last);
                        last = att.value;
                    }
                }
                _ => {
                    // A rejected (non-monotonic) append must not change state.
                    let before = enclave.counter_value(0);
                    prop_assert!(enclave.append(0, last, Digest::ZERO).is_err() || last == 0);
                    prop_assert_eq!(enclave.counter_value(0), before);
                }
            }
        }
    }

    /// Any single-field tampering of an attestation breaks verification.
    #[test]
    fn tampered_attestations_never_verify(field in 0u8..4, delta in 1u64..1000) {
        let enclave = Enclave::shared(EnclaveConfig::counter_only(ReplicaId(1), AttestationMode::Real));
        let registry = EnclaveRegistry::deterministic(4, AttestationMode::Real);
        let (_, mut att) = enclave.append_f(0, Digest::from_u64_tag(77)).unwrap();
        registry.verify(&att).unwrap();
        match field {
            0 => att.value += delta,
            1 => att.counter += delta,
            2 => att.digest = Digest::from_u64_tag(delta),
            // Always move to a *different* host in 0..4 (the host is 1).
            _ => att.host = ReplicaId(((att.host.0 as u64 + 1 + delta % 3) % 4) as u32),
        }
        prop_assert!(registry.verify(&att).is_err());
    }

    /// Two Flexi-BFT replicas never execute different batches at the same
    /// sequence number, regardless of how an adversary duplicates, drops or
    /// reorders Prepare votes (Theorem 4).
    #[test]
    fn flexi_bft_never_executes_conflicting_batches(
        order in proptest::collection::vec(0usize..100, 0..80),
        drop_mask in proptest::collection::vec(any::<bool>(), 0..80),
    ) {
        let mut cfg = SystemConfig::for_protocol(ProtocolId::FlexiBft, 1);
        cfg.batch_size = 1;
        let registry = EnclaveRegistry::deterministic(cfg.n, AttestationMode::Counting);
        let mut engines: Vec<_> = cfg
            .replicas()
            .map(|id| {
                let enclave = FlexiBft::enclave(id, AttestationMode::Counting);
                FlexiBft::new(cfg.clone(), id, enclave, registry.clone())
            })
            .collect();

        // The primary proposes three batches.
        let mut out = Outbox::new();
        let txns: Vec<Transaction> = (0..3)
            .map(|i| Transaction::new(ClientId(1), RequestId(i + 1), KvOp::Read { key: i }))
            .collect();
        engines[0].on_client_request(txns, &mut out);
        let preprepares: Vec<Message> = out.broadcasts().into_iter().cloned().collect();

        // Generate the full message pool: every preprepare and, from every
        // replica, the Prepare votes they produce when accepting them.
        let mut pool: Vec<(ReplicaId, usize, Message)> = Vec::new();
        for (i, engine) in engines.iter_mut().enumerate() {
            for pp in &preprepares {
                let mut o = Outbox::new();
                engine.on_message(ReplicaId(0), pp.clone(), &mut o);
                for m in o.broadcasts() {
                    for target in 0..cfg.n {
                        pool.push((ReplicaId(i as u32), target, m.clone()));
                    }
                }
            }
        }
        // Adversarial delivery: reorder according to `order`, drop according
        // to `drop_mask`, duplicate by wrapping around the pool.
        for (step, idx) in order.iter().enumerate() {
            if pool.is_empty() {
                break;
            }
            if drop_mask.get(step).copied().unwrap_or(false) {
                continue;
            }
            let (from, target, msg) = pool[idx % pool.len()].clone();
            let mut o = Outbox::new();
            engines[target].on_message(from, msg, &mut o);
        }

        // Safety: for each sequence number, all replicas that executed it
        // executed the same batch digest (tracked via accepted proposals).
        for seq in 1..=3u64 {
            let digests: Vec<Digest> = engines
                .iter()
                .filter(|e| e.last_executed() >= SeqNum(seq))
                .filter_map(|e| e.accepted_digest(SeqNum(seq)))
                .collect();
            for pair in digests.windows(2) {
                prop_assert_eq!(pair[0], pair[1]);
            }
        }
    }

    /// Batches produced by the crypto helper always carry their own digest.
    #[test]
    fn batch_digests_are_self_consistent(keys in proptest::collection::vec(any::<u64>(), 1..50)) {
        let txns: Vec<Transaction> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| Transaction::new(ClientId(1), RequestId(i as u64), KvOp::Read { key: *k }))
            .collect();
        let batch = make_batch(txns);
        prop_assert_eq!(batch.digest(), flexitrust::crypto::digest_batch(batch.txns()));
    }
}
