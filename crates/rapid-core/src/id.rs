//! Node identities and network endpoints.
//!
//! Rapid assigns every process a fresh 128-bit logical identifier each time
//! it joins a cluster (paper §3): a process that leaves and rejoins does so
//! under a new [`NodeId`]. The identifier is internal to Rapid and distinct
//! from any application-level identity.

use core::fmt;

/// A 128-bit logical process identifier, unique per join.
///
/// The paper's Java implementation uses UUIDs; we use a raw `u128` which is
/// equivalent in size and ordering. Identifiers are generated from entropy
/// at join time (via [`NodeId::random`]) or deterministically in tests and
/// simulations (via [`NodeId::from_u128`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u128);

impl NodeId {
    /// Creates an identifier from a raw `u128`.
    pub const fn from_u128(raw: u128) -> Self {
        NodeId(raw)
    }

    /// Returns the raw 128-bit value.
    pub const fn as_u128(&self) -> u128 {
        self.0
    }

    /// Generates a fresh random identifier from the given RNG stream.
    ///
    /// Simulations pass a seeded deterministic RNG; real deployments pass an
    /// entropy-seeded one (see `rapid-transport`).
    pub fn random(rng: &mut crate::rng::Xoshiro256) -> Self {
        NodeId(((rng.next_u64() as u128) << 64) | rng.next_u64() as u128)
    }

    /// A 64-bit digest of this identifier, used for seeding per-node RNG
    /// streams and hashing.
    pub fn digest(&self) -> u64 {
        crate::hash::fnv1a_u128(self.0)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({:032x})", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render like a UUID for familiarity.
        let b = self.0;
        write!(
            f,
            "{:08x}-{:04x}-{:04x}-{:04x}-{:012x}",
            (b >> 96) as u32,
            (b >> 80) as u16,
            (b >> 64) as u16,
            (b >> 48) as u16,
            b & 0xffff_ffff_ffff
        )
    }
}

/// Interned host names: `Endpoint` stores a `u32` symbol instead of a
/// heap string, so copying, hashing and comparing endpoints are integer
/// operations on every hot path (broadcast fan-out, simulator routing).
///
/// Host strings are leaked once per unique name — bounded by the number of
/// distinct hosts a process ever talks to — and the FNV digest each host
/// contributes to ring hashing is cached alongside, so [`Endpoint::digest`]
/// never re-hashes string bytes.
///
/// **Trust model:** anything that constructs an `Endpoint` (including the
/// wire decoder) interns its host permanently. That is the right trade in
/// simulations and cooperative clusters, where the host set is small and
/// stable; a transport exposed to *untrusted* peers must validate or
/// rate-limit sender-supplied host names before decoding, or an attacker
/// can grow the table without bound (see ROADMAP open items).
mod host_interner {
    use std::collections::HashMap;
    use std::sync::{OnceLock, RwLock};

    struct Interner {
        by_name: HashMap<&'static str, u32>,
        names: Vec<&'static str>,
        digests: Vec<u64>,
    }

    fn global() -> &'static RwLock<Interner> {
        static GLOBAL: OnceLock<RwLock<Interner>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            RwLock::new(Interner {
                by_name: HashMap::new(),
                names: Vec::new(),
                digests: Vec::new(),
            })
        })
    }

    /// Returns the symbol for `host`, interning it on first sight.
    pub fn intern(host: &str) -> u32 {
        intern_bounded(host, usize::MAX).expect("unbounded intern cannot fail")
    }

    /// Like [`intern`], but refuses to grow the table past `max_distinct`
    /// total hosts. Already-interned hosts always succeed, so a cap can
    /// never break communication with hosts a process legitimately knows.
    pub fn intern_bounded(host: &str, max_distinct: usize) -> Result<u32, usize> {
        let lock = global();
        if let Some(&sym) = lock.read().unwrap_or_else(|e| e.into_inner()).by_name.get(host) {
            return Ok(sym);
        }
        let mut w = lock.write().unwrap_or_else(|e| e.into_inner());
        if let Some(&sym) = w.by_name.get(host) {
            return Ok(sym);
        }
        if w.names.len() >= max_distinct {
            return Err(w.names.len());
        }
        let leaked: &'static str = Box::leak(host.to_owned().into_boxed_str());
        let sym = w.names.len() as u32;
        w.names.push(leaked);
        w.digests.push(crate::hash::fnv1a(leaked.as_bytes()));
        w.by_name.insert(leaked, sym);
        Ok(sym)
    }

    /// Number of distinct hosts interned so far, process-wide.
    pub fn len() -> usize {
        global().read().unwrap_or_else(|e| e.into_inner()).names.len()
    }

    /// The host string behind a symbol.
    pub fn name(sym: u32) -> &'static str {
        global().read().unwrap_or_else(|e| e.into_inner()).names[sym as usize]
    }

    /// The cached FNV-1a digest of the host string behind a symbol.
    pub fn digest(sym: u32) -> u64 {
        global().read().unwrap_or_else(|e| e.into_inner()).digests[sym as usize]
    }
}

/// A process' TCP/IP listen address (`HOST:PORT`, paper §3).
///
/// Hosts are arbitrary UTF-8 strings so the same type serves real DNS names,
/// IP literals, and symbolic simulator node names. The string is interned
/// into a global symbol table, making `Endpoint` a `Copy` value whose
/// equality and hashing are integer operations; the wire format still
/// carries the full host string.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Endpoint {
    host: u32,
    /// Byte length of the host string, cached inline so wire-size
    /// accounting never touches the interner lock. Redundant with `host`
    /// (same symbol ⇒ same length), so derived Eq/Hash stay correct.
    host_len: u16,
    port: u16,
}

impl Endpoint {
    /// Creates an endpoint from a host string and port.
    ///
    /// # Panics
    ///
    /// Panics if the host exceeds 65535 bytes — the wire format's length
    /// prefix cannot carry it, and truncating silently would desync the
    /// codec's size accounting.
    pub fn new(host: impl AsRef<str>, port: u16) -> Self {
        let host = host.as_ref();
        assert!(host.len() <= u16::MAX as usize, "host name too long for the wire format");
        Endpoint {
            host: host_interner::intern(host),
            host_len: host.len() as u16,
            port,
        }
    }

    /// Creates an endpoint only if doing so keeps the process-wide host
    /// table at or under `max_distinct` entries. Endpoints whose host is
    /// already interned always succeed; on refusal, returns the current
    /// table size. This is the decoder-facing guard against a peer
    /// streaming unique host names to grow the interner without bound
    /// (see [`crate::codec::DecodeLimits`]).
    pub fn new_bounded(
        host: impl AsRef<str>,
        port: u16,
        max_distinct: usize,
    ) -> Result<Self, usize> {
        let host = host.as_ref();
        assert!(host.len() <= u16::MAX as usize, "host name too long for the wire format");
        let sym = host_interner::intern_bounded(host, max_distinct)?;
        Ok(Endpoint {
            host: sym,
            host_len: host.len() as u16,
            port,
        })
    }

    /// Number of distinct host names interned process-wide so far.
    pub fn interned_hosts() -> usize {
        host_interner::len()
    }

    /// Parses a `host:port` string.
    ///
    /// # Examples
    ///
    /// ```
    /// use rapid_core::id::Endpoint;
    /// let ep = Endpoint::parse("10.0.0.1:5000").unwrap();
    /// assert_eq!(ep.host(), "10.0.0.1");
    /// assert_eq!(ep.port(), 5000);
    /// ```
    pub fn parse(s: &str) -> Result<Self, crate::error::RapidError> {
        let (host, port) = s
            .rsplit_once(':')
            .ok_or_else(|| crate::error::RapidError::InvalidEndpoint(s.to_string()))?;
        let port: u16 = port
            .parse()
            .map_err(|_| crate::error::RapidError::InvalidEndpoint(s.to_string()))?;
        if host.is_empty() {
            return Err(crate::error::RapidError::InvalidEndpoint(s.to_string()));
        }
        Ok(Endpoint::new(host, port))
    }

    /// The host portion.
    pub fn host(&self) -> &'static str {
        host_interner::name(self.host)
    }

    /// The port portion.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Byte length of the host string (no interner access).
    pub fn host_len(&self) -> usize {
        self.host_len as usize
    }

    /// A 64-bit digest of this endpoint, used in ring-position hashing.
    /// Identical to hashing the host string directly (the per-host FNV
    /// digest is cached by the interner).
    pub fn digest(&self) -> u64 {
        host_interner::digest(self.host).wrapping_mul(0x100000001b3) ^ self.port as u64
    }
}

/// Ordering compares `(host string, port)` — the same ordering the
/// pre-interning representation had — not interner symbol numbers, which
/// depend on interning order.
impl PartialOrd for Endpoint {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Endpoint {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        if self.host == other.host {
            return self.port.cmp(&other.port);
        }
        (self.host(), self.port).cmp(&(other.host(), other.port))
    }
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.host(), self.port)
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.host(), self.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip_and_order() {
        let a = NodeId::from_u128(1);
        let b = NodeId::from_u128(2);
        assert!(a < b);
        assert_eq!(a.as_u128(), 1);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn node_id_display_is_uuid_like() {
        let id = NodeId::from_u128(0x0123456789abcdef_0123456789abcdef);
        let s = id.to_string();
        assert_eq!(s.split('-').count(), 5);
        assert_eq!(s.len(), 36);
    }

    #[test]
    fn endpoint_parse_ok() {
        let ep = Endpoint::parse("example.com:80").unwrap();
        assert_eq!(ep.host(), "example.com");
        assert_eq!(ep.port(), 80);
        assert_eq!(ep.to_string(), "example.com:80");
    }

    #[test]
    fn endpoint_parse_rejects_garbage() {
        assert!(Endpoint::parse("nocolon").is_err());
        assert!(Endpoint::parse(":123").is_err());
        assert!(Endpoint::parse("host:notaport").is_err());
        assert!(Endpoint::parse("host:99999").is_err());
    }

    #[test]
    fn endpoint_digest_varies_with_port() {
        let a = Endpoint::new("h", 1);
        let b = Endpoint::new("h", 2);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn interning_is_stable_and_copy() {
        let a = Endpoint::new("intern-test-host", 9);
        let b = Endpoint::new(String::from("intern-test-host"), 9);
        let c = a; // Copy, not move.
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.host(), "intern-test-host");
        assert_eq!(a.digest(), b.digest());
        assert!(std::mem::size_of::<Endpoint>() <= 8, "Endpoint must stay register-sized");
    }

    #[test]
    fn ordering_follows_host_string_not_symbol() {
        // Intern in reverse lexicographic order: symbol order disagrees
        // with string order, the public Ord must follow the strings.
        let z = Endpoint::new("zz-order-test", 1);
        let a = Endpoint::new("aa-order-test", 1);
        assert!(a < z);
        let p1 = Endpoint::new("aa-order-test", 1);
        let p2 = Endpoint::new("aa-order-test", 2);
        assert!(p1 < p2);
    }

    #[test]
    fn non_ascii_and_empty_hosts_intern() {
        let e = Endpoint::new("", 5);
        assert_eq!(e.host(), "");
        assert_eq!(e.to_string(), ":5");
        let u = Endpoint::new("höst-中-🦀", 7);
        assert_eq!(u.host(), "höst-中-🦀");
        assert_eq!(u, Endpoint::new("höst-中-🦀", 7));
        assert_ne!(u, Endpoint::new("höst-中-🦀", 8));
    }

    #[test]
    fn bounded_interning_refuses_new_hosts_at_cap() {
        // Known hosts always pass regardless of the cap...
        let known = Endpoint::new("bounded-intern-known", 1);
        let cap = Endpoint::interned_hosts();
        assert_eq!(Endpoint::new_bounded("bounded-intern-known", 2, cap), Ok(Endpoint::new("bounded-intern-known", 2)));
        let _ = known;
        // ...but a cap at the current size refuses any fresh name (other
        // tests may intern concurrently, so only assert the refusal shape,
        // re-reading the live size as the cap).
        let refused = Endpoint::new_bounded("bounded-intern-fresh", 1, 0);
        assert!(matches!(refused, Err(n) if n >= cap));
        // With headroom the same name interns fine.
        let ok = Endpoint::new_bounded("bounded-intern-fresh", 1, usize::MAX).unwrap();
        assert_eq!(ok.host(), "bounded-intern-fresh");
    }

    #[test]
    fn random_ids_differ() {
        let mut rng = crate::rng::Xoshiro256::seed_from_u64(42);
        let a = NodeId::random(&mut rng);
        let b = NodeId::random(&mut rng);
        assert_ne!(a, b);
    }
}
