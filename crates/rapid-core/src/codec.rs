//! The codec kit: the byte format and hostile-input rules shared by every
//! wire format in the workspace — the membership protocol
//! ([`crate::wire`]), the KV data plane (`rapid-route`'s codec) and the
//! TCP transport's frame header.
//!
//! Fields are little-endian; strings carry a `u16` or `u32` length
//! prefix; an endpoint is `[u16 host_len][host bytes][u16 port]`. Every
//! decoder reads through [`Reader`], so all of them apply the same rules:
//! a host longer than [`MAX_WIRE_HOST_LEN`] is refused from its prefix; a
//! fresh host is interned only under [`DecodeLimits::max_distinct_hosts`]
//! (interning is permanent); a declared count must fit the bytes left at
//! its smallest item size ([`Reader::count`]); a batch must not nest and
//! meets the [`DecodeLimits`] batch caps before anything nested is
//! decoded. Every refusal is a `Copy` [`DecodeError`], so no reject path
//! formats a message or allocates.

use core::fmt;

use crate::id::Endpoint;

/// Decode-side cap on host-name length. The wire can carry 65535 bytes,
/// but no DNS name or IP literal exceeds 255, and every decoded host is
/// interned for the life of the process.
pub const MAX_WIRE_HOST_LEN: usize = 255;

/// Default cap on *distinct* host names the decoders will ever intern,
/// process-wide: double the paper's largest deployment.
pub const MAX_DISTINCT_WIRE_HOSTS: usize = 4_096;

/// Default cap on the messages one batch frame may carry. The outbox
/// splits every lane at this count (see [`crate::outbox`]).
pub const MAX_BATCH_MSGS: usize = 4_096;

/// Default cap on the encoded bytes of one batch frame; the real
/// transport's frame ceiling.
pub const MAX_BATCH_BYTES: usize = 32 * 1024 * 1024;

/// Resource limits applied while decoding untrusted bytes.
///
/// Decoders run under [`DecodeLimits::default`]; transports exposed to
/// less-trusted peers can tighten (or loosen, for genuinely huge
/// cooperative clusters) the caps via
/// [`crate::wire::decode_with_limits`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodeLimits {
    /// Maximum total distinct host names the process-wide interner may
    /// hold after this decode; an input introducing a host beyond the cap
    /// fails to decode (already-known hosts always pass).
    pub max_distinct_hosts: usize,
    /// Maximum messages a single batch frame may carry.
    pub max_batch_msgs: usize,
    /// Maximum encoded bytes a single batch frame may occupy (checked
    /// before any nested message is decoded).
    pub max_batch_bytes: usize,
}

impl Default for DecodeLimits {
    fn default() -> Self {
        DecodeLimits {
            max_distinct_hosts: MAX_DISTINCT_WIRE_HOSTS,
            max_batch_msgs: MAX_BATCH_MSGS,
            max_batch_bytes: MAX_BATCH_BYTES,
        }
    }
}

/// Why a decoder refused its input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ends inside a field, or a declared count of items cannot
    /// fit the bytes left.
    Truncated {
        /// Bytes needed.
        need: usize,
        /// Bytes left.
        have: usize,
    },
    /// A declared count exceeds its cap.
    TooMany {
        /// The declared count.
        count: usize,
        /// The cap.
        cap: usize,
    },
    /// A host name longer than [`MAX_WIRE_HOST_LEN`].
    HostTooLong {
        /// The declared length.
        len: usize,
    },
    /// A fresh host past [`DecodeLimits::max_distinct_hosts`].
    TooManyHosts {
        /// Hosts already interned.
        interned: usize,
        /// The cap.
        cap: usize,
    },
    /// A string that is not UTF-8.
    Utf8,
    /// A message tag no family owns.
    UnknownTag(u8),
    /// A byte outside its field's domain (an option tag, a join status).
    BadValue {
        /// The field.
        field: &'static str,
        /// The byte found.
        value: u8,
    },
    /// A batch inside a batch.
    NestedBatch,
    /// A batch frame over [`DecodeLimits::max_batch_bytes`].
    BatchTooLarge {
        /// The bytes the batch spans.
        bytes: usize,
        /// The cap.
        cap: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DecodeError::Truncated { need, have } => {
                write!(f, "truncated: need {need}, have {have}")
            }
            DecodeError::TooMany { count, cap } => write!(f, "count {count} exceeds cap {cap}"),
            DecodeError::HostTooLong { len } => write!(f, "host of {len} bytes exceeds cap"),
            DecodeError::TooManyHosts { interned, cap } => {
                write!(
                    f,
                    "fresh host past max_distinct_hosts ({interned} >= {cap})"
                )
            }
            DecodeError::Utf8 => f.write_str("invalid utf8"),
            DecodeError::UnknownTag(tag) => write!(f, "unknown tag {tag}"),
            DecodeError::BadValue { field, value } => write!(f, "bad {field} {value}"),
            DecodeError::NestedBatch => f.write_str("nested batch"),
            DecodeError::BatchTooLarge { bytes, cap } => {
                write!(f, "batch of {bytes} bytes exceeds cap {cap}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends `s` behind a `u16` length prefix.
pub fn put_str16(buf: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    buf.extend_from_slice(&(s.len() as u16).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Appends `b` behind a `u32` length prefix.
pub fn put_bytes32(buf: &mut Vec<u8>, b: &[u8]) {
    buf.extend_from_slice(&(b.len() as u32).to_le_bytes());
    buf.extend_from_slice(b);
}

/// Appends `s` behind a `u32` length prefix.
pub fn put_str32(buf: &mut Vec<u8>, s: &str) {
    put_bytes32(buf, s.as_bytes());
}

/// Appends an endpoint: `[u16 host_len][host bytes][u16 port]`.
pub fn put_endpoint(buf: &mut Vec<u8>, ep: &Endpoint) {
    put_str16(buf, ep.host());
    buf.extend_from_slice(&ep.port().to_le_bytes());
}

/// Encoded size of [`put_str16`].
pub fn str16_len(s: &str) -> usize {
    2 + s.len()
}

/// Encoded size of [`put_str32`].
pub fn str32_len(s: &str) -> usize {
    4 + s.len()
}

/// Encoded size of [`put_endpoint`], from the host length the endpoint
/// caches — no interner lock on the simulator's sizing path.
pub fn endpoint_len(ep: &Endpoint) -> usize {
    2 + ep.host_len() + 2
}

/// A bounds-checked cursor over untrusted input: every getter returns a
/// whole field or a [`DecodeError`], and none panics on any input.
pub struct Reader<'a> {
    buf: &'a [u8],
    limits: DecodeLimits,
}

impl<'a> Reader<'a> {
    /// A reader over `buf` applying `limits`.
    pub fn new(buf: &'a [u8], limits: DecodeLimits) -> Reader<'a> {
        Reader { buf, limits }
    }

    /// The input not yet consumed.
    pub fn rest(&self) -> &'a [u8] {
        self.buf
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() < n {
            return Err(DecodeError::Truncated {
                need: n,
                have: self.buf.len(),
            });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("took exactly N bytes"))
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a `u128`.
    #[inline]
    pub fn u128(&mut self) -> Result<u128, DecodeError> {
        self.array().map(u128::from_le_bytes)
    }

    /// Borrows a `u16`-length-prefixed string.
    pub fn str16(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.u16()? as usize;
        utf8(self.take(len)?)
    }

    /// Borrows `u32`-length-prefixed bytes.
    pub fn bytes32(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Borrows a `u32`-length-prefixed string.
    pub fn str32(&mut self) -> Result<&'a str, DecodeError> {
        utf8(self.bytes32()?)
    }

    /// Reads an endpoint's host, borrowed and length-capped, and port —
    /// without interning, for a caller that validates the rest of its
    /// input first (then calls [`Reader::intern`]).
    pub fn host_port(&mut self) -> Result<(&'a str, u16), DecodeError> {
        let len = self.u16()? as usize;
        if len > MAX_WIRE_HOST_LEN {
            return Err(DecodeError::HostTooLong { len });
        }
        let host = utf8(self.take(len)?)?;
        Ok((host, self.u16()?))
    }

    /// Interns a host from [`Reader::host_port`], refusing a fresh one
    /// past [`DecodeLimits::max_distinct_hosts`].
    pub fn intern(&self, host: &str, port: u16) -> Result<Endpoint, DecodeError> {
        let cap = self.limits.max_distinct_hosts;
        Endpoint::new_bounded(host, port, cap)
            .map_err(|interned| DecodeError::TooManyHosts { interned, cap })
    }

    /// Reads and interns an endpoint.
    pub fn endpoint(&mut self) -> Result<Endpoint, DecodeError> {
        let (host, port) = self.host_port()?;
        self.intern(host, port)
    }

    /// Checks that `n` items of at least `min_item_len` bytes each fit the
    /// bytes left, so a forged count is refused before anything is
    /// reserved for it. Returns `n`.
    pub fn count(&self, n: usize, min_item_len: usize) -> Result<usize, DecodeError> {
        let (need, have) = (n.saturating_mul(min_item_len), self.buf.len());
        if need > have {
            return Err(DecodeError::Truncated { need, have });
        }
        Ok(n)
    }

    /// Reads `n` items with `read`, once [`Reader::count`] admits `n`.
    pub fn list<T>(
        &mut self,
        n: usize,
        min_item_len: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let mut items = Vec::with_capacity(self.count(n, min_item_len)?);
        for _ in 0..n {
            items.push(read(self)?);
        }
        Ok(items)
    }

    /// Reads a `0`/`1` option tag, then the value when present.
    pub fn opt<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => read(self).map(Some),
            value => Err(DecodeError::BadValue {
                field: "option tag",
                value,
            }),
        }
    }

    /// Opens a batch whose tag was just read and returns its message count
    /// (read by `read_count`), refusing — before anything nested is
    /// decoded — a nested batch, a frame over
    /// [`DecodeLimits::max_batch_bytes`] (measured before the count) and a
    /// count over [`DecodeLimits::max_batch_msgs`].
    pub fn open_batch(
        &mut self,
        nested: bool,
        read_count: impl FnOnce(&mut Self) -> Result<usize, DecodeError>,
    ) -> Result<usize, DecodeError> {
        let (bytes, limits) = (self.buf.len(), self.limits);
        if nested {
            return Err(DecodeError::NestedBatch);
        }
        if bytes > limits.max_batch_bytes {
            let cap = limits.max_batch_bytes;
            return Err(DecodeError::BatchTooLarge { bytes, cap });
        }
        let (count, cap) = (read_count(self)?, limits.max_batch_msgs);
        if count > cap {
            return Err(DecodeError::TooMany { count, cap });
        }
        Ok(count)
    }
}

fn utf8(bytes: &[u8]) -> Result<&str, DecodeError> {
    std::str::from_utf8(bytes).map_err(|_| DecodeError::Utf8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reader(bytes: &[u8]) -> Reader<'_> {
        Reader::new(bytes, DecodeLimits::default())
    }

    #[test]
    fn writers_and_reader_agree_and_sizes_mirror() {
        let ep = Endpoint::new("codec-kit-höst", 7);
        let mut buf = Vec::new();
        put_endpoint(&mut buf, &ep);
        put_str16(&mut buf, "ké");
        put_str32(&mut buf, "");
        put_bytes32(&mut buf, &[1, 2, 3]);
        assert_eq!(
            buf.len(),
            endpoint_len(&ep) + str16_len("ké") + str32_len("") + 4 + 3
        );
        let mut r = reader(&buf);
        assert_eq!(r.endpoint(), Ok(ep));
        assert_eq!(r.str16(), Ok("ké"));
        assert_eq!(r.str32(), Ok(""));
        assert_eq!(r.bytes32(), Ok(&[1u8, 2, 3][..]));
        assert!(r.rest().is_empty());
        assert_eq!(r.u8(), Err(DecodeError::Truncated { need: 1, have: 0 }));
    }

    #[test]
    fn host_length_is_refused_from_its_prefix() {
        // Only the prefix is present: the cap fires before any host byte
        // is needed.
        let bytes = ((MAX_WIRE_HOST_LEN + 1) as u16).to_le_bytes();
        assert_eq!(
            reader(&bytes).host_port(),
            Err(DecodeError::HostTooLong {
                len: MAX_WIRE_HOST_LEN + 1
            })
        );
        let mut bytes = Vec::new();
        put_str16(&mut bytes, &"h".repeat(MAX_WIRE_HOST_LEN));
        bytes.extend_from_slice(&9u16.to_le_bytes());
        assert!(reader(&bytes).host_port().is_ok(), "the cap itself passes");
        assert_eq!(
            reader(&[1, 0, 0xFF, 0, 0]).host_port(),
            Err(DecodeError::Utf8)
        );
    }

    #[test]
    fn fresh_hosts_are_refused_at_the_cap_known_hosts_pass() {
        let known = Endpoint::new("codec-kit-known", 1);
        let tight = DecodeLimits {
            max_distinct_hosts: 0,
            ..DecodeLimits::default()
        };
        let r = Reader::new(&[], tight);
        assert_eq!(r.intern("codec-kit-known", 1), Ok(known));
        assert!(matches!(
            r.intern("codec-kit-never-seen", 1),
            Err(DecodeError::TooManyHosts { cap: 0, .. })
        ));
    }

    #[test]
    fn counts_must_fit_the_remaining_bytes() {
        let r = reader(&[0; 24]);
        assert_eq!(r.count(3, 8), Ok(3));
        assert_eq!(
            r.count(4, 8),
            Err(DecodeError::Truncated { need: 32, have: 24 })
        );
        assert_eq!(
            r.count(usize::MAX, 2),
            Err(DecodeError::Truncated {
                need: usize::MAX,
                have: 24
            })
        );
        let words = [1u64, 2, 3].map(u64::to_le_bytes).concat();
        assert_eq!(reader(&words).list(3, 8, Reader::u64), Ok(vec![1, 2, 3]));
        assert!(matches!(
            reader(&words).list(4, 8, Reader::u64),
            Err(DecodeError::Truncated { need: 32, .. })
        ));
    }

    #[test]
    fn option_tags_and_batch_guards() {
        assert_eq!(reader(&[0]).opt(|r| r.u8()), Ok(None));
        assert_eq!(reader(&[1, 7]).opt(|r| r.u8()), Ok(Some(7)));
        assert_eq!(
            reader(&[2]).opt(|r| r.u8()),
            Err(DecodeError::BadValue {
                field: "option tag",
                value: 2
            })
        );
        let small = DecodeLimits {
            max_batch_msgs: 2,
            max_batch_bytes: 4,
            ..DecodeLimits::default()
        };
        let open = |bytes: &[u8], nested| {
            Reader::new(bytes, small).open_batch(nested, |r| r.u8().map(usize::from))
        };
        assert_eq!(open(&[2, 0, 0, 0], true), Err(DecodeError::NestedBatch));
        assert_eq!(open(&[2, 0, 0, 0], false), Ok(2));
        assert_eq!(
            open(&[2, 0, 0, 0, 0], false),
            Err(DecodeError::BatchTooLarge { bytes: 5, cap: 4 })
        );
        assert_eq!(
            open(&[3], false),
            Err(DecodeError::TooMany { count: 3, cap: 2 })
        );
    }
}
