//! The binary codec: little-endian, length-prefixed, bounds-checked.
//!
//! [`Encoder`] appends primitives to a growable buffer; [`Decoder`] reads them back
//! with every access bounds-checked, reporting damage as [`StoreError::Corrupt`] at
//! an *absolute* file offset (the decoder carries the base offset of its window).
//! [`Codec`] ties the two together; fitted pieces implement it next to their own
//! definitions.
//!
//! Floats are encoded as raw IEEE-754 bits ([`f64::to_bits`]), so a decode is
//! bit-identical to the encoded value — the property the recovery gate asserts.

use crate::StoreError;

/// A type with a binary encoding: `enc` must be deterministic (canonical byte
/// stream for equal values) and `dec(enc(x)) == x` bit-exactly.
pub trait Codec: Sized {
    /// Appends the canonical encoding of `self`.
    fn enc(&self, e: &mut Encoder);
    /// Decodes one value, consuming exactly the bytes `enc` produced.
    fn dec(d: &mut Decoder<'_>) -> Result<Self, StoreError>;
}

/// Append-only byte sink for the canonical encoding.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (the format is 64-bit regardless of host).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its raw IEEE-754 bits (bit-exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes with no length prefix (caller frames them).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked reader over an encoded byte window.
///
/// `base` is the absolute file offset of the window's first byte, so every
/// [`StoreError::Corrupt`] the decoder reports points into the *file*, not the
/// window.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> Decoder<'a> {
    /// A decoder whose window starts at file offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder::with_base(buf, 0)
    }

    /// A decoder over a window that starts at absolute file offset `base`.
    pub fn with_base(buf: &'a [u8], base: u64) -> Self {
        Decoder { buf, pos: 0, base }
    }

    /// The absolute file offset of the next unread byte.
    pub fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Bytes left in the window.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A [`StoreError::Corrupt`] at the current position.
    pub fn corrupt(&self, detail: impl Into<String>) -> StoreError {
        StoreError::corrupt(self.offset(), detail)
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(self.corrupt(format!(
                "truncated {what}: need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, StoreError> {
        let b = self.take(2, "u16")?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u64` and narrows it to the host `usize`.
    pub fn take_usize(&mut self) -> Result<usize, StoreError> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| self.corrupt(format!("length {v} exceeds the host usize")))
    }

    /// Reads an `f64` from its raw IEEE-754 bits.
    pub fn take_f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, StoreError> {
        let len = self.take_len(1, "string")?;
        let bytes = self.take(len, "string body")?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| self.corrupt("string body is not valid UTF-8"))
    }

    /// Reads a collection length prefix and sanity-checks it against the bytes that
    /// remain (each element needs at least `min_elem_bytes`), so corrupt lengths are
    /// refused before any allocation is sized from them.
    pub fn take_len(&mut self, min_elem_bytes: usize, what: &str) -> Result<usize, StoreError> {
        let len = self.take_usize()?;
        let floor = min_elem_bytes.max(1);
        if len > self.remaining() / floor + 1 {
            return Err(self.corrupt(format!(
                "{what} length {len} is impossible: only {} bytes remain",
                self.remaining()
            )));
        }
        Ok(len)
    }

    /// Asserts the window was fully consumed — trailing garbage is corruption.
    pub fn finish(self) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(self.corrupt(format!("{} trailing bytes after decode", self.remaining())));
        }
        Ok(())
    }
}

/// Round-trips one value through the codec (encode, then decode a fresh window).
/// Convenience for tests and for journal payload framing.
pub fn encode_to_vec<T: Codec>(value: &T) -> Vec<u8> {
    let mut e = Encoder::new();
    value.enc(&mut e);
    e.into_bytes()
}

/// Decodes one value from a standalone window starting at absolute offset `base`,
/// requiring full consumption.
pub fn decode_exact<T: Codec>(bytes: &[u8], base: u64) -> Result<T, StoreError> {
    let mut d = Decoder::with_base(bytes, base);
    let value = T::dec(&mut d)?;
    d.finish()?;
    Ok(value)
}

macro_rules! int_codec {
    ($ty:ty, $put:ident, $take:ident) => {
        impl Codec for $ty {
            fn enc(&self, e: &mut Encoder) {
                e.$put(*self);
            }
            fn dec(d: &mut Decoder<'_>) -> Result<Self, StoreError> {
                d.$take()
            }
        }
    };
}

int_codec!(u8, put_u8, take_u8);
int_codec!(u16, put_u16, take_u16);
int_codec!(u32, put_u32, take_u32);
int_codec!(u64, put_u64, take_u64);
int_codec!(usize, put_usize, take_usize);
int_codec!(f64, put_f64, take_f64);

impl Codec for bool {
    fn enc(&self, e: &mut Encoder) {
        e.put_u8(u8::from(*self));
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, StoreError> {
        match d.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(d.corrupt(format!("invalid bool tag {tag}"))),
        }
    }
}

impl Codec for String {
    fn enc(&self, e: &mut Encoder) {
        e.put_str(self);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, StoreError> {
        d.take_str()
    }
}

impl<T: Codec> Codec for Option<T> {
    fn enc(&self, e: &mut Encoder) {
        match self {
            None => e.put_u8(0),
            Some(v) => {
                e.put_u8(1);
                v.enc(e);
            }
        }
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, StoreError> {
        match d.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::dec(d)?)),
            tag => Err(d.corrupt(format!("invalid Option tag {tag}"))),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn enc(&self, e: &mut Encoder) {
        e.put_usize(self.len());
        for v in self {
            v.enc(e);
        }
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, StoreError> {
        let len = d.take_len(1, "vec")?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::dec(d)?);
        }
        Ok(out)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn enc(&self, e: &mut Encoder) {
        self.0.enc(e);
        self.1.enc(e);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, StoreError> {
        Ok((A::dec(d)?, B::dec(d)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn enc(&self, e: &mut Encoder) {
        self.0.enc(e);
        self.1.enc(e);
        self.2.enc(e);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, StoreError> {
        Ok((A::dec(d)?, B::dec(d)?, C::dec(d)?))
    }
}

impl<T: Codec> Codec for std::sync::Arc<T> {
    fn enc(&self, e: &mut Encoder) {
        T::enc(self, e);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, StoreError> {
        Ok(std::sync::Arc::new(T::dec(d)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = encode_to_vec(&value);
        let back: T = decode_exact(&bytes, 0).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(String::from("héllo wörld"));
        roundtrip(String::new());
        roundtrip(Option::<u32>::None);
        roundtrip(Some(42u32));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u32>::new());
        roundtrip((7u32, String::from("x")));
        roundtrip((1u8, 2u16, 3u32));
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        for v in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, f64::NAN, f64::INFINITY] {
            let bytes = encode_to_vec(&v);
            let back: f64 = decode_exact(&bytes, 0).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncated_input_is_corrupt_never_panics() {
        let value = (vec![1u64, 2, 3], String::from("tail"), Some(9u32));
        let bytes = encode_to_vec(&value);
        for cut in 0..bytes.len() {
            let err = decode_exact::<(Vec<u64>, String, Option<u32>)>(&bytes[..cut], 0)
                .expect_err("truncation must fail");
            assert!(
                matches!(err, StoreError::Corrupt { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_corrupt() {
        let mut bytes = encode_to_vec(&5u32);
        bytes.push(0);
        let err = decode_exact::<u32>(&bytes, 0).expect_err("trailing byte");
        assert!(matches!(err, StoreError::Corrupt { .. }));
    }

    #[test]
    fn hostile_vec_length_is_refused_before_allocation() {
        let mut e = Encoder::new();
        e.put_usize(u32::MAX as usize);
        let bytes = e.into_bytes();
        let err = decode_exact::<Vec<u64>>(&bytes, 0).expect_err("hostile length");
        assert!(matches!(err, StoreError::Corrupt { .. }));
    }

    #[test]
    fn corrupt_offsets_are_absolute() {
        let err = decode_exact::<u32>(&[], 1000).expect_err("empty window");
        match err {
            StoreError::Corrupt { offset, .. } => assert_eq!(offset, 1000),
            other => panic!("expected Corrupt, got {other}"),
        }
    }
}
