//! The benchmark's own reference transpose, by index arithmetic alone.
//!
//! Layout follows the library: dimension 0 varies fastest, and
//! `perm[i] = j` means output dimension `i` is input dimension `j`, so
//! `out[.., i_{perm[k]}, ..] = in[i_0, i_1, ..]`. Nothing here calls the
//! library, so a change to the program cannot move the check with it.

use crate::rng::mix;

/// The value the benchmark stores at input offset `i` for `seed`: a
/// 52-bit integer, exact in `f64` and distinct with high probability, so
/// a misplaced element is caught.
pub fn value(seed: u64, i: usize) -> f64 {
    (mix(seed ^ (i as u64).wrapping_mul(0xd6e8_feb8_6659_fd93)) >> 12) as f64
}

/// Seeded input data for a tensor of `volume` elements.
pub fn input_data(seed: u64, volume: usize) -> Vec<f64> {
    (0..volume).map(|i| value(seed, i)).collect()
}

/// Output extents: `out[i] = in[perm[i]]`.
pub fn out_extents(extents: &[usize], perm: &[usize]) -> Vec<usize> {
    perm.iter().map(|&j| extents[j]).collect()
}

/// Input strides walked in output-dimension order.
fn perm_strides(extents: &[usize], perm: &[usize]) -> Vec<usize> {
    let mut strides = Vec::with_capacity(extents.len());
    let mut acc = 1usize;
    for &e in extents {
        strides.push(acc);
        acc *= e;
    }
    perm.iter().map(|&j| strides[j]).collect()
}

/// Transpose `input` by element-wise index arithmetic.
#[cfg(test)]
pub fn transpose(extents: &[usize], perm: &[usize], input: &[f64]) -> Vec<f64> {
    let volume: usize = extents.iter().product();
    assert_eq!(input.len(), volume, "input length does not match extents");
    let mut out = vec![0.0; volume];
    walk(extents, perm, 0, volume, |o, i| out[o] = input[i]);
    out
}

/// Visit output offsets `start..end` in order with the input offset each
/// one reads, keeping an odometer over the output index.
fn walk(
    extents: &[usize],
    perm: &[usize],
    start: usize,
    end: usize,
    mut f: impl FnMut(usize, usize),
) {
    if start >= end {
        return;
    }
    let oext = out_extents(extents, perm);
    let ps = perm_strides(extents, perm);
    let rank = oext.len();
    let mut idx = vec![0usize; rank];
    let mut rem = start;
    let mut in_off = 0usize;
    for d in 0..rank {
        idx[d] = rem % oext[d];
        rem /= oext[d];
        in_off += idx[d] * ps[d];
    }
    for o in start..end {
        f(o, in_off);
        for d in 0..rank {
            idx[d] += 1;
            in_off += ps[d];
            if idx[d] < oext[d] {
                break;
            }
            in_off -= oext[d] * ps[d];
            idx[d] = 0;
        }
    }
}

/// Check `output` against `input` transposed by `perm`. Returns the
/// first mismatching output offset.
pub fn verify(
    extents: &[usize],
    perm: &[usize],
    input: &[f64],
    output: &[f64],
) -> Result<(), usize> {
    verify_range(extents, perm, 0, output, |i| input[i])
}

/// Check `output`, which holds output offsets `start..start+len`, against
/// `expect(input_offset)`.
pub fn verify_range(
    extents: &[usize],
    perm: &[usize],
    start: usize,
    output: &[f64],
    expect: impl Fn(usize) -> f64,
) -> Result<(), usize> {
    let mut bad = None;
    walk(extents, perm, start, start + output.len(), |o, i| {
        if bad.is_none() && output[o - start].to_bits() != expect(i).to_bits() {
            bad = Some(o);
        }
    });
    bad.map_or(Ok(()), Err)
}

/// [`verify_range`] over the whole output on `threads` threads, for
/// arrays too large to check on one core in reasonable time.
pub fn verify_parallel(
    extents: &[usize],
    perm: &[usize],
    output: &[f64],
    threads: usize,
    expect: impl Fn(usize) -> f64 + Sync,
) -> Result<(), usize> {
    let threads = threads.max(1);
    let chunk = output.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = output
            .chunks(chunk)
            .enumerate()
            .map(|(k, part)| {
                let expect = &expect;
                s.spawn(move || verify_range(extents, perm, k * chunk, part, expect))
            })
            .collect();
        let mut first = Ok(());
        for h in handles {
            let r = h.join().expect("verification thread panicked");
            if first.is_ok() {
                first = r;
            }
        }
        first
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota(n: usize) -> Vec<f64> {
        (0..n).map(|v| v as f64).collect()
    }

    #[test]
    fn matrix_transpose_by_hand() {
        // 2x3 column-major: in = [a00 a10 a01 a11 a02 a12].
        let out = transpose(&[2, 3], &[1, 0], &iota(6));
        assert_eq!(out, vec![0.0, 2.0, 4.0, 1.0, 3.0, 5.0]);
        assert_eq!(out_extents(&[2, 3], &[1, 0]), vec![3, 2]);
    }

    #[test]
    fn rank3_rotation_by_hand() {
        // out(i2, i0, i1) = in(i0, i1, i2).
        let out = transpose(&[2, 2, 2], &[2, 0, 1], &iota(8));
        assert_eq!(out, vec![0.0, 4.0, 1.0, 5.0, 2.0, 6.0, 3.0, 7.0]);
    }

    #[test]
    fn uneven_extents_by_hand() {
        // [2,3,1] reversed to [1,3,2]: the size-1 dim moves to the front,
        // so this is the 2x3 matrix transpose again.
        let out = transpose(&[2, 3, 1], &[2, 1, 0], &iota(6));
        assert_eq!(out, vec![0.0, 2.0, 4.0, 1.0, 3.0, 5.0]);
    }

    #[test]
    fn identity_is_a_copy() {
        let input = input_data(7, 60);
        assert_eq!(transpose(&[3, 4, 5], &[0, 1, 2], &input), input);
    }

    #[test]
    fn inverse_round_trip() {
        let ext = [3, 4, 5, 2];
        let perm = [2, 0, 3, 1];
        let inv = {
            let mut inv = [0; 4];
            for (i, &p) in perm.iter().enumerate() {
                inv[p] = i;
            }
            inv
        };
        let input = input_data(1, 120);
        let out = transpose(&ext, &perm, &input);
        let back = transpose(&out_extents(&ext, &perm), &inv, &out);
        assert_eq!(back, input);
    }

    #[test]
    fn verify_finds_the_first_wrong_element() {
        let ext = [4, 3, 2];
        let perm = [1, 2, 0];
        let input = input_data(3, 24);
        let mut out = transpose(&ext, &perm, &input);
        assert_eq!(verify(&ext, &perm, &input, &out), Ok(()));
        out.swap(5, 9);
        assert_eq!(verify(&ext, &perm, &input, &out), Err(5));
        let good = transpose(&ext, &perm, &input);
        let seeded = |i: usize| value(3, i);
        assert_eq!(verify_parallel(&ext, &perm, &good, 3, seeded), Ok(()));
        assert_eq!(verify_parallel(&ext, &perm, &out, 3, seeded), Err(5));
    }

    #[test]
    fn seeded_values_are_exact_and_distinct() {
        let v = input_data(11, 4096);
        let mut bits: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
        bits.sort_unstable();
        bits.dedup();
        assert_eq!(bits.len(), 4096);
        assert!(v
            .iter()
            .all(|x| x.fract() == 0.0 && *x < (1u64 << 53) as f64));
        assert_ne!(input_data(12, 8), input_data(11, 8));
    }
}
