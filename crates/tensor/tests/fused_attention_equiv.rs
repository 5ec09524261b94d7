//! Bitwise equivalence of the fused multi-head attention against the
//! compositional per-head reference graph, through the full
//! `MultiHeadAttention` module: forward values, the input gradient, and every
//! projection-parameter gradient must match exactly (`to_bits`), not merely
//! within tolerance. This is the contract that let the fused kernel replace
//! the reference path without perturbing the training trajectory.

use cf_rand::rngs::StdRng;
use cf_rand::{Rng, SeedableRng};
use cf_tensor::nn::MultiHeadAttention;
use cf_tensor::{ParamStore, Tape, Tensor};

fn rand_input(b: usize, t: usize, d: usize, rng: &mut StdRng) -> Tensor {
    Tensor::new(
        [b, t, d],
        (0..b * t * d).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
}

fn run_case(b: usize, seq: usize, dim: usize, heads: usize, mask: Option<&[usize]>, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ps = ParamStore::new();
    let mha = MultiHeadAttention::new(&mut ps, "eq", dim, heads, &mut rng);
    let x = rand_input(b, seq, dim, &mut rng);

    let run = |fused: bool| {
        let mut t = Tape::new();
        let xv = t.leaf(x.clone());
        let y = if fused {
            mha.forward(&mut t, &ps, xv, mask)
        } else {
            mha.forward_reference(&mut t, &ps, xv, mask)
        };
        let l = t.mean_all(y);
        let g = t.backward(l, ps.len());
        let out_bits: Vec<u32> = t.value(y).data().iter().map(|v| v.to_bits()).collect();
        let dx_bits: Vec<u32> = g
            .grad(xv)
            .expect("input grad")
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let param_bits: Vec<(String, Vec<u32>)> = ps
            .iter()
            .map(|(id, name, _)| {
                (
                    name.to_string(),
                    g.param_grad(id)
                        .expect("param grad")
                        .data()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect(),
                )
            })
            .collect();
        (out_bits, dx_bits, param_bits)
    };

    let fused = run(true);
    let reference = run(false);
    assert_eq!(fused.0, reference.0, "forward bits diverge (seed {seed})");
    assert_eq!(
        fused.1, reference.1,
        "input grad bits diverge (seed {seed})"
    );
    for ((name_f, bits_f), (_, bits_r)) in fused.2.iter().zip(&reference.2) {
        assert_eq!(bits_f, bits_r, "param grad bits diverge for {name_f}");
    }
}

#[test]
fn fused_attention_bitwise_matches_reference_unmasked() {
    run_case(2, 5, 8, 2, None, 11);
    run_case(1, 3, 4, 1, None, 12); // single head
    run_case(3, 4, 12, 4, None, 13); // dh = 3, odd remainder shapes
}

#[test]
fn fused_attention_bitwise_matches_reference_masked() {
    // Ragged prefix lengths, as the chain encoder's padded batches pass
    // them: one full row beside shorter ones, down to a single valid key.
    run_case(2, 5, 8, 2, Some(&[3, 5]), 21);
    run_case(1, 3, 6, 3, Some(&[2]), 22);
    run_case(3, 4, 12, 4, Some(&[1, 4, 2]), 23);
}

#[test]
fn fused_attention_bitwise_matches_reference_at_model_shape() {
    // The paper's Chain-Encoder shape: B=8, T=16, d=64, h=4.
    run_case(8, 16, 64, 4, None, 31);
}

#[test]
fn fused_attention_bitwise_matches_reference_around_vector_widths() {
    // The scores run several keys per vector (8 lanes under AVX2, 16 under
    // AVX-512, 4 at the baseline): sequence lengths at, below and above
    // each width, with and without ragged key masks.
    for (i, seq) in [1usize, 7, 8, 9, 15, 16, 17, 33].into_iter().enumerate() {
        let seed = 41 + i as u64;
        run_case(2, seq, 12, 3, None, seed);
        let lens = [seq, (seq / 2).max(1)];
        run_case(2, seq, 12, 3, Some(&lens), seed + 100);
    }
}
