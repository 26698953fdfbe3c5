//! Bench-owned seeded input generation.
//!
//! The program under test only ever sees the keys, values and op mix
//! produced here; the same `--seed` gives the same inputs on every run.
//! The RNG is deliberately not `rapid_core::rng`: a later change to the
//! repo's generator must not change the workload.

use std::time::Duration;

/// SplitMix64: small, fast, and good enough to drive a workload.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`); the modulo bias is far below
    /// anything a workload mix could notice.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// One generated client operation. `seq` numbers ops from 0 in issue
/// order and is embedded in every put's value, so a read-back value
/// names the put that wrote it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub seq: u64,
    pub key: u32,
    pub is_put: bool,
}

/// The key set, value pool and op stream of one workload run.
pub struct Inputs {
    keys: Vec<String>,
    /// Random printable filler; a value is a header plus a slice of this.
    pool: String,
    value_bytes: usize,
    /// Share of puts in parts per thousand.
    put_permille: u64,
    rng: Rng,
    next_seq: u64,
}

/// Width of the `v<seq>:` header every value starts with.
const HEADER: usize = 12;

impl Inputs {
    pub fn new(seed: u64, n_keys: usize, value_bytes: usize, put_permille: u64) -> Inputs {
        assert!(value_bytes >= HEADER, "a value must hold its header");
        let mut rng = Rng::new(seed);
        // Keys carry a seed-derived tag so two seeds exercise different
        // partitions, not only different op orders.
        let tag = rng.next_u64() & 0xFFFF_FFFF;
        let keys = (0..n_keys).map(|i| format!("k{tag:08x}-{i:06}")).collect();
        let pool_len = value_bytes * 8 + 64;
        let pool: String = (0..pool_len)
            .map(|_| (b'a' + rng.below(26) as u8) as char)
            .collect();
        Inputs {
            keys,
            pool,
            value_bytes,
            put_permille,
            rng,
            next_seq: 0,
        }
    }

    pub fn key(&self, idx: u32) -> &str {
        &self.keys[idx as usize]
    }

    /// The value put number `seq` writes: fixed size, names its put.
    pub fn value(&self, seq: u64) -> String {
        let mut v = String::with_capacity(self.value_bytes);
        v.push_str(&format!("v{seq:010}:"));
        let body = self.value_bytes - HEADER;
        let span = self.pool.len() - body;
        let off = (seq.wrapping_mul(0x9E37_79B9) % span as u64) as usize;
        v.push_str(&self.pool[off..off + body]);
        v
    }

    /// The put a stored value claims to come from, if it is well formed.
    pub fn seq_of_value(val: &str) -> Option<u64> {
        let digits = val.strip_prefix('v')?.get(..10)?;
        if val.as_bytes().get(HEADER - 1) != Some(&b':') {
            return None;
        }
        digits.parse().ok()
    }

    /// Preload ops: one put per key, in key order.
    pub fn preload(&mut self) -> Vec<Op> {
        (0..self.keys.len() as u32)
            .map(|key| {
                let seq = self.next_seq;
                self.next_seq += 1;
                Op {
                    seq,
                    key,
                    is_put: true,
                }
            })
            .collect()
    }

    /// The next op of the timed stream: uniform key, seeded put/get coin.
    pub fn next_op(&mut self) -> Op {
        let key = self.rng.below(self.keys.len() as u64) as u32;
        let is_put = self.rng.below(1000) < self.put_permille;
        let seq = self.next_seq;
        self.next_seq += 1;
        Op { seq, key, is_put }
    }
}

/// Due time of op number `i` in an open loop of `rate` ops per second,
/// measured from the start of the timed window. Latency is taken from
/// this instant, so a stall charges every op that was due during it.
pub fn due_time(i: u64, rate: u64) -> Duration {
    Duration::from_nanos(i * 1_000_000_000 / rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let mut a = Inputs::new(7, 64, 64, 500);
        let mut b = Inputs::new(7, 64, 64, 500);
        assert_eq!(a.preload(), b.preload());
        for _ in 0..1000 {
            let (x, y) = (a.next_op(), b.next_op());
            assert_eq!(x, y);
            assert_eq!(a.key(x.key), b.key(y.key));
            assert_eq!(a.value(x.seq), b.value(y.seq));
        }
    }

    #[test]
    fn different_seed_different_inputs() {
        let mut a = Inputs::new(7, 64, 64, 500);
        let mut b = Inputs::new(8, 64, 64, 500);
        assert_ne!(a.key(0), b.key(0));
        let xs: Vec<Op> = (0..64).map(|_| a.next_op()).collect();
        let ys: Vec<Op> = (0..64).map(|_| b.next_op()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn values_have_the_asked_size_and_name_their_put() {
        let g = Inputs::new(1, 4, 1024, 1000);
        for seq in [0, 1, 999, 123_456_789] {
            let v = g.value(seq);
            assert_eq!(v.len(), 1024);
            assert_eq!(Inputs::seq_of_value(&v), Some(seq));
        }
        assert_eq!(Inputs::seq_of_value("garbage"), None);
        assert_eq!(Inputs::seq_of_value("v00000000xx:rest"), None);
    }

    #[test]
    fn mix_follows_the_put_share() {
        let mut g = Inputs::new(3, 16, 64, 500);
        let puts = (0..10_000).filter(|_| g.next_op().is_put).count();
        assert!((4_500..5_500).contains(&puts), "{puts}");
        let mut g = Inputs::new(3, 16, 64, 1000);
        assert!((0..100).all(|_| g.next_op().is_put));
        let mut g = Inputs::new(3, 16, 64, 0);
        assert!((0..100).all(|_| !g.next_op().is_put));
    }

    #[test]
    fn open_loop_schedule_is_timed_from_due_time() {
        assert_eq!(due_time(0, 500), Duration::ZERO);
        assert_eq!(due_time(1, 500), Duration::from_millis(2));
        assert_eq!(due_time(500, 500), Duration::from_secs(1));
        // No drift: op 12345 is due at exactly 12345 / rate.
        assert_eq!(due_time(12_345, 500), Duration::from_millis(24_690));
    }
}
