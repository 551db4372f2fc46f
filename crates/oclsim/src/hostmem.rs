//! Host-side byte conversion helpers.
//!
//! OpenCL buffers are untyped byte ranges; host code is responsible for the
//! layout. These helpers centralise the little-endian conversions used by
//! hosts, the flattening layer, and tests.

/// Write `vals` into `out` (exactly `4 * vals.len()` bytes) as 4-byte
/// little-endian words — the in-place form the queue's typed writes use
/// to convert straight into buffer storage. A `chunks_exact_mut` walk over
/// a pre-sized destination: no per-element capacity check, so the loop
/// vectorises.
pub fn pack<T: Copy>(vals: &[T], out: &mut [u8], le_bytes: impl Fn(T) -> [u8; 4]) {
    assert_eq!(out.len(), vals.len() * 4, "destination must hold every element");
    for (word, v) in out.chunks_exact_mut(4).zip(vals) {
        word.copy_from_slice(&le_bytes(*v));
    }
}

fn to_bytes<T: Copy>(vals: &[T], le_bytes: impl Fn(T) -> [u8; 4]) -> Vec<u8> {
    let mut out = vec![0u8; vals.len() * 4];
    pack(vals, &mut out, le_bytes);
    out
}

/// Pack an `f32` slice into little-endian bytes.
pub fn f32_to_bytes(vals: &[f32]) -> Vec<u8> {
    to_bytes(vals, f32::to_le_bytes)
}

/// Unpack little-endian bytes into `f32`s. Trailing partial elements are
/// ignored (mirrors reading a deliberately oversized buffer).
pub fn bytes_to_f32(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("chunk of 4")))
        .collect()
}

/// Pack an `i32` slice into little-endian bytes.
pub fn i32_to_bytes(vals: &[i32]) -> Vec<u8> {
    to_bytes(vals, i32::to_le_bytes)
}

/// Unpack little-endian bytes into `i32`s.
pub fn bytes_to_i32(bytes: &[u8]) -> Vec<i32> {
    bytes
        .chunks_exact(4)
        .map(|c| i32::from_le_bytes(c.try_into().expect("chunk of 4")))
        .collect()
}

/// Pack a `u32` slice into little-endian bytes.
pub fn u32_to_bytes(vals: &[u32]) -> Vec<u8> {
    to_bytes(vals, u32::to_le_bytes)
}

/// Unpack little-endian bytes into `u32`s.
pub fn bytes_to_u32(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("chunk of 4")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_roundtrip() {
        let vals = vec![0.0, -1.5, 3.25, f32::MAX];
        assert_eq!(bytes_to_f32(&f32_to_bytes(&vals)), vals);
    }

    #[test]
    fn i32_roundtrip() {
        let vals = vec![0, -1, i32::MAX, i32::MIN];
        assert_eq!(bytes_to_i32(&i32_to_bytes(&vals)), vals);
    }

    #[test]
    fn u32_roundtrip() {
        let vals = vec![0, 1, u32::MAX];
        assert_eq!(bytes_to_u32(&u32_to_bytes(&vals)), vals);
    }

    #[test]
    fn trailing_bytes_are_ignored() {
        let mut bytes = f32_to_bytes(&[1.0]);
        bytes.push(0xff);
        assert_eq!(bytes_to_f32(&bytes), vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "destination must hold every element")]
    fn packing_into_a_short_destination_is_a_bug() {
        pack(&[1.0f32, 2.0], &mut [0u8; 4], f32::to_le_bytes);
    }

    proptest::proptest! {
        /// Every bit pattern survives the round trip (NaN payloads
        /// included, hence the comparison on bits), the layout is
        /// little-endian word by word, and 1-3 trailing bytes of a
        /// partial element are dropped on the way back.
        #[test]
        fn conversions_roundtrip_every_bit_pattern(
            words in proptest::collection::vec(proptest::any::<u32>(), 0..70),
            tail in proptest::collection::vec(proptest::any::<u8>(), 0..4),
        ) {
            let le: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let floats: Vec<f32> = words.iter().map(|&w| f32::from_bits(w)).collect();
            let ints: Vec<i32> = words.iter().map(|&w| w as i32).collect();
            proptest::prop_assert_eq!(&f32_to_bytes(&floats), &le);
            proptest::prop_assert_eq!(&i32_to_bytes(&ints), &le);
            proptest::prop_assert_eq!(&u32_to_bytes(&words), &le);

            let mut in_place = vec![0xAAu8; le.len()];
            pack(&floats, &mut in_place, f32::to_le_bytes);
            proptest::prop_assert_eq!(&in_place, &le);
            in_place.fill(0xAA);
            pack(&ints, &mut in_place, i32::to_le_bytes);
            proptest::prop_assert_eq!(&in_place, &le);

            let mut ragged = le.clone();
            ragged.extend(&tail);
            let back: Vec<u32> = bytes_to_f32(&ragged).iter().map(|f| f.to_bits()).collect();
            proptest::prop_assert_eq!(&back, &words);
            proptest::prop_assert_eq!(&bytes_to_i32(&ragged), &ints);
            proptest::prop_assert_eq!(&bytes_to_u32(&ragged), &words);
        }
    }
}
