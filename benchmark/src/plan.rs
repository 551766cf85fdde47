//! Seeded request plans: which artifact path each GET asks for and which
//! `/evolve` bodies the compute clients send.
//!
//! Everything derives from the workload seed through the benchmark's own
//! SplitMix64 generator (never the crates under test), so one seed gives
//! one request sequence on every revision.

use cuisine_data::CuisineId;

/// Independent draw streams of one seed.
pub mod stream {
    /// GET path order of the open-loop phases (plus the connection index).
    pub const OPEN: u64 = 0x10;
    /// GET path order of the closed-loop capacity phase (plus the
    /// connection index).
    pub const CAPACITY: u64 = 0x20;
    /// `/evolve` bodies of `evolve-cold`.
    pub const EVOLVE_COLD: u64 = 0x30;
    /// `/evolve` bodies of `mixed`.
    pub const EVOLVE_MIXED: u64 = 0x40;
}

/// The evolution models an `/evolve` body may name.
pub const MODELS: [&str; 4] = ["CM-R", "CM-C", "CM-M", "NM"];

/// Replicates per `/evolve` request.
pub const EVOLVE_REPLICATES: usize = 4;

/// Seeds stay below 2^53 so every JSON reader holds them exactly.
const SEED_MASK: u64 = (1 << 48) - 1;

fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 over `(seed, stream)`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for one stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(splitmix(
            seed ^ splitmix(stream.wrapping_add(0x9E37_79B9_7F4A_7C15)),
        ))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix(self.0)
    }

    /// Uniform index in `0..n` (`n > 0`; the modulo bias is below 2^-50).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One planned `/evolve` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvolveCall {
    /// The JSON request body.
    pub body: String,
    /// The ensemble seed it names.
    pub seed: u64,
    /// For a designed repeat: the index of the original it copies.
    pub repeat_of: Option<usize>,
}

/// `count` `/evolve` requests for one seed.
///
/// Originals walk the request types in one fixed order, the same for
/// every seed: each cycle of 100 holds every (cuisine, model) pair once,
/// 20 of them in category mode and the rest in ingredient mode. Any prefix
/// of a plan therefore has the same cost mix whatever the seed, which
/// keeps a run's median steady. The seed picks each original's ensemble
/// seed, unique within the plan so no two originals share a cache or
/// coalescing key, and, with `repeat_every = Some(k)`, which earlier
/// original every k-th request repeats byte for byte.
pub fn evolve_plan(
    seed: u64,
    stream: u64,
    count: usize,
    repeat_every: Option<usize>,
) -> Vec<EvolveCall> {
    let codes: Vec<&str> = CuisineId::all().map(|id| id.code()).collect();
    let cycle = codes.len() * MODELS.len();
    let mut rng = Rng::new(seed, stream);
    let base = rng.next_u64() & SEED_MASK;
    let mut calls: Vec<EvolveCall> = Vec::with_capacity(count);
    let mut originals = 0usize;
    for i in 0..count {
        if let Some(k) = repeat_every.filter(|&k| k > 1) {
            if i % k == k - 1 {
                let picked = rng.below(i);
                let original = calls[picked].repeat_of.unwrap_or(picked);
                let copy = EvolveCall {
                    repeat_of: Some(original),
                    ..calls[original].clone()
                };
                calls.push(copy);
                continue;
            }
        }
        let (round, slot) = (originals / cycle, originals % cycle);
        let cuisine = slot % codes.len();
        let model = (slot / codes.len() + cuisine) % MODELS.len();
        let mode = if (cuisine + model + round).is_multiple_of(5) {
            "category"
        } else {
            "ingredient"
        };
        let call_seed = base + originals as u64;
        originals += 1;
        calls.push(EvolveCall {
            body: format!(
                r#"{{"cuisine":"{}","model":"{}","seed":{call_seed},"replicates":{EVOLVE_REPLICATES},"mode":"{mode}"}}"#,
                codes[cuisine], MODELS[model]
            ),
            seed: call_seed,
            repeat_of: None,
        });
    }
    calls
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn plans_are_reproducible_and_seed_dependent() {
        assert_eq!(
            evolve_plan(11, stream::EVOLVE_COLD, 300, None),
            evolve_plan(11, stream::EVOLVE_COLD, 300, None)
        );
        assert_ne!(
            evolve_plan(11, stream::EVOLVE_COLD, 300, None),
            evolve_plan(12, stream::EVOLVE_COLD, 300, None)
        );
        let mut a = Rng::new(11, stream::OPEN);
        let mut b = Rng::new(11, stream::OPEN);
        let mut c = Rng::new(11, stream::OPEN + 1);
        let draws = |rng: &mut Rng| (0..64).map(|_| rng.below(34)).collect::<Vec<_>>();
        let (da, db, dc) = (draws(&mut a), draws(&mut b), draws(&mut c));
        assert_eq!(da, db);
        assert_ne!(da, dc);
        assert!(da.iter().all(|&i| i < 34));
    }

    /// (cuisine, model, category mode) of a planned body, parsed as the
    /// server parses it.
    fn kind(call: &EvolveCall) -> (&'static str, &'static str, bool) {
        let request = cuisine_serve::EvolveRequest::from_json(call.body.as_bytes())
            .expect("planned body is a valid /evolve request");
        (
            request.cuisine.code(),
            request.model.label(),
            request.mode == cuisine_mining::ItemMode::Categories,
        )
    }

    #[test]
    fn cold_plans_have_unique_seeds_and_balanced_cycles() {
        let plan = evolve_plan(11, stream::EVOLVE_COLD, 500, None);
        let seeds: BTreeSet<u64> = plan.iter().map(|c| c.seed).collect();
        assert_eq!(
            seeds.len(),
            plan.len(),
            "every cold request names its own seed"
        );
        let bodies: BTreeSet<&str> = plan.iter().map(|c| c.body.as_str()).collect();
        assert_eq!(bodies.len(), plan.len());
        for cycle in plan.chunks(100) {
            let pairs: BTreeSet<(&str, &str)> = cycle
                .iter()
                .map(kind)
                .map(|(cuisine, model, _)| (cuisine, model))
                .collect();
            assert_eq!(
                pairs.len(),
                100,
                "each cycle holds every (cuisine, model) once"
            );
            assert_eq!(cycle.iter().filter(|c| kind(c).2).count(), 20);
        }
        // The type order does not depend on the seed; the ensemble seeds do.
        let other = evolve_plan(12, stream::EVOLVE_COLD, 500, None);
        assert!(plan
            .iter()
            .zip(&other)
            .all(|(a, b)| kind(a) == kind(b) && a.seed != b.seed));
        // Every body parses as the server would parse it.
        for call in &plan {
            let parsed = cuisine_serve::EvolveRequest::from_json(call.body.as_bytes())
                .expect("planned body is a valid /evolve request");
            assert_eq!(parsed.seed, call.seed);
            assert_eq!(parsed.replicates, EVOLVE_REPLICATES);
        }
    }

    #[test]
    fn mixed_plans_repeat_exactly_one_in_four() {
        let plan = evolve_plan(11, stream::EVOLVE_MIXED, 320, Some(4));
        let repeats: Vec<(usize, &EvolveCall)> = plan
            .iter()
            .enumerate()
            .filter(|(_, c)| c.repeat_of.is_some())
            .collect();
        assert_eq!(repeats.len(), 80);
        for (i, call) in repeats {
            assert_eq!(i % 4, 3);
            let original = call.repeat_of.unwrap();
            assert!(original < i, "a repeat follows its original");
            assert!(plan[original].repeat_of.is_none());
            assert_eq!(call.body, plan[original].body);
        }
        let originals: BTreeSet<&str> = plan
            .iter()
            .filter(|c| c.repeat_of.is_none())
            .map(|c| c.body.as_str())
            .collect();
        assert_eq!(originals.len(), 240, "originals stay unique");
    }
}
