//! YCSB-style workload generation.
//!
//! The paper evaluates every protocol on the Yahoo! Cloud Serving Benchmark
//! (YCSB) over a 600 k-record key-value store. This module reproduces that
//! workload: a configurable mix of reads, updates, inserts, read-modify-write
//! and scans over keys drawn from a uniform or zipfian distribution, with
//! deterministic seeding so simulations and tests are reproducible.

mod zipfian;

use flexitrust_types::{ClientId, KvOp, RequestId, Transaction, ValueBytes};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;
pub use zipfian::ZipfianGenerator;

/// How keys are chosen from the record space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDistribution {
    /// Every record is equally likely.
    Uniform,
    /// YCSB zipfian distribution with the given skew parameter.
    Zipfian {
        /// Skew parameter in (0, 1); YCSB uses 0.99.
        theta: f64,
    },
}

/// Configuration of the workload mix.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Number of records in the store (the paper uses 600 000).
    pub record_count: u64,
    /// Size of each record value in bytes.
    pub value_size: usize,
    /// Fraction of read operations.
    pub read_proportion: f64,
    /// Fraction of update operations.
    pub update_proportion: f64,
    /// Fraction of insert operations.
    pub insert_proportion: f64,
    /// Fraction of read-modify-write operations.
    pub rmw_proportion: f64,
    /// Fraction of scan operations.
    pub scan_proportion: f64,
    /// Maximum scan length.
    pub max_scan_len: u32,
    /// Key popularity distribution.
    pub distribution: KeyDistribution,
}

impl WorkloadConfig {
    /// The configuration used throughout the paper's evaluation: YCSB over
    /// 600 k records with a 50/50 read/update mix (YCSB workload A) and
    /// zipfian key popularity.
    pub fn paper_default() -> Self {
        WorkloadConfig {
            record_count: 600_000,
            value_size: 100,
            read_proportion: 0.5,
            update_proportion: 0.5,
            insert_proportion: 0.0,
            rmw_proportion: 0.0,
            scan_proportion: 0.0,
            max_scan_len: 100,
            distribution: KeyDistribution::Zipfian {
                theta: ZipfianGenerator::YCSB_THETA,
            },
        }
    }

    /// YCSB workload A: 50% reads, 50% updates.
    pub fn ycsb_a() -> Self {
        Self::paper_default()
    }

    /// YCSB workload B: 95% reads, 5% updates.
    pub fn ycsb_b() -> Self {
        WorkloadConfig {
            read_proportion: 0.95,
            update_proportion: 0.05,
            ..Self::paper_default()
        }
    }

    /// YCSB workload C: 100% reads.
    pub fn ycsb_c() -> Self {
        WorkloadConfig {
            read_proportion: 1.0,
            update_proportion: 0.0,
            ..Self::paper_default()
        }
    }

    /// A write-heavy mix used by some ablations: 100% updates.
    pub fn update_only() -> Self {
        WorkloadConfig {
            read_proportion: 0.0,
            update_proportion: 1.0,
            ..Self::paper_default()
        }
    }

    /// A small configuration for unit tests (1 k records, tiny values).
    pub fn tiny() -> Self {
        WorkloadConfig {
            record_count: 1_000,
            value_size: 8,
            ..Self::paper_default()
        }
    }

    /// Validates that the proportions sum to 1 (within rounding error).
    pub fn is_valid(&self) -> bool {
        let total = self.read_proportion
            + self.update_proportion
            + self.insert_proportion
            + self.rmw_proportion
            + self.scan_proportion;
        (total - 1.0).abs() < 1e-9 && self.record_count > 0
    }
}

/// A deterministic per-client transaction generator.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    config: WorkloadConfig,
    client: ClientId,
    next_request: RequestId,
    next_insert_key: u64,
    zipfian: Option<ZipfianGenerator>,
    rng: ChaCha12Rng,
}

impl WorkloadGenerator {
    /// Creates a generator for one client; `seed` makes the stream
    /// reproducible (the same seed and client produce the same transactions).
    pub fn new(config: WorkloadConfig, client: ClientId, seed: u64) -> Self {
        let zipfian = match config.distribution {
            KeyDistribution::Uniform => None,
            KeyDistribution::Zipfian { theta } => {
                Some(ZipfianGenerator::new(config.record_count, theta))
            }
        };
        let rng = ChaCha12Rng::seed_from_u64(seed ^ client.0.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        WorkloadGenerator {
            next_insert_key: config.record_count + client.0 * 1_000_000,
            config,
            client,
            next_request: RequestId(1),
            zipfian,
            rng,
        }
    }

    /// The configuration this generator draws from.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    fn next_key(&mut self) -> u64 {
        match &self.zipfian {
            Some(z) => z.next_key(&mut self.rng),
            None => self.rng.gen_range(0..self.config.record_count),
        }
    }

    fn value(&mut self) -> ValueBytes {
        let mut v = vec![0u8; self.config.value_size];
        self.rng.fill(v.as_mut_slice());
        v.into()
    }

    /// Generates the next transaction for this client.
    pub fn next_transaction(&mut self) -> Transaction {
        let request = self.next_request;
        self.next_request = self.next_request.next();

        let roll: f64 = self.rng.gen();
        let c = &self.config;
        let op = if roll < c.read_proportion {
            KvOp::Read {
                key: self.next_key(),
            }
        } else if roll < c.read_proportion + c.update_proportion {
            KvOp::Update {
                key: self.next_key(),
                value: self.value(),
            }
        } else if roll < c.read_proportion + c.update_proportion + c.insert_proportion {
            let key = self.next_insert_key;
            self.next_insert_key += 1;
            KvOp::Insert {
                key,
                value: self.value(),
            }
        } else if roll
            < c.read_proportion + c.update_proportion + c.insert_proportion + c.rmw_proportion
        {
            KvOp::ReadModifyWrite {
                key: self.next_key(),
                value: self.value(),
            }
        } else {
            KvOp::Scan {
                start_key: self.next_key(),
                count: self.rng.gen_range(1..=self.config.max_scan_len),
            }
        };
        Transaction::new(self.client, request, op)
    }

    /// Generates a whole batch of `size` transactions.
    pub fn next_batch(&mut self, size: usize) -> Vec<Transaction> {
        (0..size).map(|_| self.next_transaction()).collect()
    }

    /// Generates the initial records to pre-load the store with
    /// (`record_count` inserts with deterministic values).
    pub fn initial_records(config: &WorkloadConfig) -> impl Iterator<Item = (u64, Vec<u8>)> + '_ {
        (0..config.record_count).map(move |key| {
            let mut value = vec![0u8; config.value_size];
            for (i, b) in value.iter_mut().enumerate() {
                *b = (key as u8).wrapping_add(i as u8);
            }
            (key, value)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid_and_600k_records() {
        let cfg = WorkloadConfig::paper_default();
        assert!(cfg.is_valid());
        assert_eq!(cfg.record_count, 600_000);
    }

    #[test]
    fn presets_are_valid() {
        for cfg in [
            WorkloadConfig::ycsb_a(),
            WorkloadConfig::ycsb_b(),
            WorkloadConfig::ycsb_c(),
            WorkloadConfig::update_only(),
            WorkloadConfig::tiny(),
        ] {
            assert!(cfg.is_valid(), "{cfg:?}");
        }
    }

    #[test]
    fn generator_is_deterministic_per_seed_and_client() {
        let make = |seed| {
            let mut g = WorkloadGenerator::new(WorkloadConfig::tiny(), ClientId(3), seed);
            g.next_batch(20)
        };
        assert_eq!(make(1), make(1));
        assert_ne!(make(1), make(2));
    }

    #[test]
    fn different_clients_generate_different_streams() {
        let cfg = WorkloadConfig::tiny();
        let mut a = WorkloadGenerator::new(cfg.clone(), ClientId(1), 5);
        let mut b = WorkloadGenerator::new(cfg, ClientId(2), 5);
        assert_ne!(a.next_batch(10), b.next_batch(10));
    }

    #[test]
    fn request_ids_increase_monotonically() {
        let mut g = WorkloadGenerator::new(WorkloadConfig::tiny(), ClientId(1), 0);
        let batch = g.next_batch(5);
        for (i, txn) in batch.iter().enumerate() {
            assert_eq!(txn.request(), RequestId(i as u64 + 1));
            assert_eq!(txn.client(), ClientId(1));
        }
    }

    #[test]
    fn mix_respects_proportions_roughly() {
        let mut g = WorkloadGenerator::new(WorkloadConfig::ycsb_b(), ClientId(1), 42);
        let batch = g.next_batch(5_000);
        let reads = batch
            .iter()
            .filter(|t| matches!(t.op(), KvOp::Read { .. }))
            .count();
        let frac = reads as f64 / batch.len() as f64;
        assert!((frac - 0.95).abs() < 0.02, "read fraction {frac}");
    }

    #[test]
    fn read_only_workload_generates_only_reads() {
        let mut g = WorkloadGenerator::new(WorkloadConfig::ycsb_c(), ClientId(1), 11);
        assert!(g
            .next_batch(500)
            .iter()
            .all(|t| matches!(t.op(), KvOp::Read { .. })));
    }

    #[test]
    fn keys_stay_within_record_space_for_reads_updates() {
        let cfg = WorkloadConfig::tiny();
        let mut g = WorkloadGenerator::new(cfg.clone(), ClientId(1), 3);
        for t in g.next_batch(2_000) {
            match t.op() {
                KvOp::Read { key } | KvOp::Update { key, .. } => {
                    assert!(*key < cfg.record_count)
                }
                _ => {}
            }
        }
    }

    #[test]
    fn initial_records_cover_the_whole_space() {
        let cfg = WorkloadConfig::tiny();
        let records: Vec<_> = WorkloadGenerator::initial_records(&cfg).collect();
        assert_eq!(records.len(), 1_000);
        assert_eq!(records[0].0, 0);
        assert_eq!(records.last().unwrap().0, 999);
        assert_eq!(records[5].1.len(), cfg.value_size);
    }

    #[test]
    fn uniform_distribution_is_supported() {
        let cfg = WorkloadConfig {
            distribution: KeyDistribution::Uniform,
            ..WorkloadConfig::tiny()
        };
        let mut g = WorkloadGenerator::new(cfg, ClientId(1), 1);
        let batch = g.next_batch(1_000);
        let max_key = batch.iter().filter_map(|t| t.op().key()).max().unwrap();
        assert!(max_key < 1_000);
    }
}
