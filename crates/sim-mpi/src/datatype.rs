//! Minimal datatype support: converting typed slices to and from the byte
//! payloads carried by the fabric.
//!
//! The real MPI datatype engine (derived types, packing) is far larger than
//! anything the replication protocol interacts with; SDR-MPI treats payloads
//! as opaque bytes. We therefore only provide the conversions the workloads
//! need: `f64`, `u64` and raw bytes, all little-endian.
//!
//! Encoding writes each byte once, into the buffer the fabric will carry
//! ([`Bytes::from_fill`]): a payload of up to `bytes::INLINE_CAP` bytes —
//! every scalar halo and allreduce word — touches no allocator, a larger one
//! costs one allocation and no copy. Decoding has a non-allocating form for
//! one word ([`bytes_to_f64`]) and for many ([`iter_f64s`]); the
//! `bytes_to_*s` functions collect the same words into a `Vec`.

use bytes::Bytes;

/// Write `count` 8-byte little-endian words, in place, into a new payload.
fn encode_words<T>(
    count: usize,
    values: impl IntoIterator<Item = T>,
    to_le: impl Fn(T) -> [u8; 8],
) -> Bytes {
    Bytes::from_fill(count * 8, |out| {
        let mut words = out.chunks_exact_mut(8);
        // Internal iteration: a gather built from nested `flat_map`s
        // compiles to the nested loops it describes.
        values.into_iter().for_each(|v| {
            let word = words.next().expect("more values than `count`");
            word.copy_from_slice(&to_le(v));
        });
        assert!(words.next().is_none(), "fewer values than `count`");
    })
}

/// The 8-byte little-endian words of a payload, decoded one by one.
///
/// Panics if the payload length is not a multiple of 8.
fn decode_words<'a, T>(
    bytes: &'a [u8],
    from_le: impl Fn([u8; 8]) -> T + 'a,
) -> impl ExactSizeIterator<Item = T> + 'a {
    assert!(
        bytes.len().is_multiple_of(8),
        "payload length {} not a multiple of 8",
        bytes.len()
    );
    bytes
        .chunks_exact(8)
        .map(move |c| from_le(c.try_into().expect("chunk of 8")))
}

/// Encode a slice of `f64` values.
pub fn f64s_to_bytes(values: &[f64]) -> Bytes {
    f64s_to_bytes_iter(values.len(), values.iter().copied())
}

/// Encode exactly `count` `f64` values straight from an iterator — a strided
/// or computed sequence is marshalled into its payload without an
/// intermediate `Vec<f64>`.
///
/// Panics if `values` yields more or fewer than `count` values.
pub fn f64s_to_bytes_iter(count: usize, values: impl IntoIterator<Item = f64>) -> Bytes {
    encode_words(count, values, f64::to_le_bytes)
}

/// Decode a payload produced by [`f64s_to_bytes`] without allocating.
///
/// Panics if the payload length is not a multiple of 8.
pub fn iter_f64s(bytes: &[u8]) -> impl ExactSizeIterator<Item = f64> + '_ {
    decode_words(bytes, f64::from_le_bytes)
}

/// Decode a payload produced by [`f64s_to_bytes`].
///
/// Panics if the payload length is not a multiple of 8.
pub fn bytes_to_f64s(bytes: &[u8]) -> Vec<f64> {
    iter_f64s(bytes).collect()
}

/// Encode a slice of `u64` values.
pub fn u64s_to_bytes(values: &[u64]) -> Bytes {
    encode_words(values.len(), values.iter().copied(), u64::to_le_bytes)
}

/// Decode a payload produced by [`u64s_to_bytes`].
pub fn bytes_to_u64s(bytes: &[u8]) -> Vec<u64> {
    decode_words(bytes, u64::from_le_bytes).collect()
}

/// Encode a single `f64`.
pub fn f64_to_bytes(v: f64) -> Bytes {
    Bytes::copy_from_slice(&v.to_le_bytes())
}

/// Decode a single `f64` (panics on wrong length).
pub fn bytes_to_f64(bytes: &[u8]) -> f64 {
    assert_eq!(bytes.len(), 8, "expected 8 bytes for an f64");
    f64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundtrip() {
        let v = vec![0.0, -1.5, std::f64::consts::PI, f64::MAX, f64::MIN_POSITIVE];
        assert_eq!(bytes_to_f64s(&f64s_to_bytes(&v)), v);
    }

    #[test]
    fn u64_roundtrip() {
        let v = vec![0, 1, u64::MAX, 0xdead_beef];
        assert_eq!(bytes_to_u64s(&u64s_to_bytes(&v)), v);
    }

    #[test]
    fn scalar_roundtrip() {
        assert_eq!(bytes_to_f64(&f64_to_bytes(2.75)), 2.75);
    }

    #[test]
    fn iterator_forms_agree_with_the_slice_forms() {
        let v = vec![0.5, -0.0, f64::NAN, 1e300, -7.25];
        let encoded = f64s_to_bytes_iter(v.len(), v.iter().copied());
        assert_eq!(encoded, f64s_to_bytes(&v));
        let bits = |x: &f64| x.to_bits();
        assert!(iter_f64s(&encoded)
            .map(|x| x.to_bits())
            .eq(v.iter().map(bits)));
        assert_eq!(iter_f64s(&encoded).len(), v.len());
    }

    #[test]
    #[should_panic(expected = "fewer values")]
    fn short_iterator_panics() {
        f64s_to_bytes_iter(3, [1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "more values")]
    fn long_iterator_panics() {
        f64s_to_bytes_iter(1, [1.0, 2.0]);
    }

    #[test]
    fn empty_slices() {
        assert!(bytes_to_f64s(&f64s_to_bytes(&[])).is_empty());
        assert!(bytes_to_u64s(&u64s_to_bytes(&[])).is_empty());
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn misaligned_payload_panics() {
        bytes_to_f64s(&[1, 2, 3]);
    }
}
