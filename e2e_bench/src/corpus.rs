//! Seeded input generation. Every corpus is made here and reaches the
//! program as FASTA bytes.

use mrmc_seqio::fasta::write_fasta;
use mrmc_seqio::SeqRecord;
use mrmc_simulate::sixteen_s::make_family;
use mrmc_simulate::{ErrorModel, ReadSimulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Species in the Huse et al. 16S community.
const HUSE_SPECIES: usize = 43;

/// Seed of the 16S gene family. The community is fixed, like a
/// published reference data set; `--seed` draws the reads from it, so
/// inputs differ between seeds only by sampling.
const COMMUNITY_SEED: u64 = 0x6875_7365; // "huse"

/// `n` Huse-style 16S amplicon reads (one ~100 bp window per species,
/// per-read pyrosequencing error uniform in [0, 3 %]), drawn with
/// `seed`, as FASTA wrapped at 60 columns. The per-read draws are the
/// ones `mrmc_simulate::huse_16s` makes.
pub fn huse_fasta(n: usize, seed: u64) -> Vec<u8> {
    let genes = make_family(HUSE_SPECIES, &mut StdRng::seed_from_u64(COMMUNITY_SEED));
    let mut rng = StdRng::seed_from_u64(seed);
    let reads: Vec<SeqRecord> = (0..n)
        .map(|r| {
            let template = genes[rng.random_range(0..HUSE_SPECIES)].amplicon(3, 20);
            let rate = rng.random::<f64>() * 0.03;
            let sim = ReadSimulator::new(template.len().max(1), ErrorModel::pyrosequencing(rate));
            SeqRecord::new(format!("huse_{r}"), sim.apply_errors(template, &mut rng))
        })
        .collect();
    let mut out = Vec::new();
    write_fasta(&mut out, &reads, 60).expect("writing to a Vec cannot fail");
    out
}

/// `n` reads of 800–1200 bp drawn from eight seeded templates with ~2 %
/// point mutations — the corpus `pig_bench` runs Algorithm 3 on.
pub fn templated_fasta(n: usize, seed: u64) -> Vec<u8> {
    const BASES: &[u8; 4] = b"ACGT";
    let mut rng = StdRng::seed_from_u64(seed);
    let templates: Vec<Vec<u8>> = (0..8)
        .map(|_| {
            let len = rng.random_range(800..1200);
            (0..len)
                .map(|_| BASES[rng.random_range(0..4usize)])
                .collect()
        })
        .collect();
    let mut out = Vec::new();
    for i in 0..n {
        let template = &templates[rng.random_range(0..templates.len())];
        out.extend_from_slice(format!(">r{i:05}\n").as_bytes());
        for &b in template {
            if rng.random_range(0..100) < 2 {
                out.push(BASES[rng.random_range(0..4usize)]);
            } else {
                out.push(b);
            }
        }
        out.push(b'\n');
    }
    out
}
