//! The synthetic single-column benchmark (stand-in for the paper's 50
//! DBPedia-derived fuzzy-join tasks).
//!
//! Each benchmark task corresponds to one *entity domain* (the paper's
//! "entity type"): a template family and word pools that generate a set of
//! unique canonical entity names.  The reference table `L` holds a subset of
//! those names (so `L` is incomplete, as in the paper, where `L` is the 2013
//! snapshot); the query table `R` holds perturbed variants of entities — some
//! present in `L` (ground truth = that record) and some absent (ground truth
//! = ⊥).  Multiple `R` variants may map to the same `L` record, giving the
//! many-to-one structure of Definition 2.1.  Exact equi-joins are removed by
//! construction (the perturber never returns its input).

use crate::perturb::PerturbationMix;
use crate::task::SingleColumnTask;
use crate::words::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// A template family for canonical entity names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Family {
    /// `"{year} {place} {mascot} {sport} team"` — NCAA-style team seasons.
    TeamSeason,
    /// `"{first} {last}"` person names, optionally with a parenthetical role.
    Person,
    /// `"{title} {first} {last} of {city}"` — monarchs, bishops, nobles.
    TitledPerson,
    /// `"{region} {place} {org-kind}"` — agencies, parties, legislatures.
    Organization,
    /// `"{adjective} {city} {facility-kind}"` — stadiums, hospitals, museums.
    Facility,
    /// Pharmaceutical-style coined names, optionally with a numeric code.
    DrugCode,
    /// `"{letters}-{number}"` style catalogue codes — satellites, galaxies.
    CatalogCode,
    /// `"{art-word} No. {n} ({city})"` — artworks, songs, compositions.
    Artwork,
    /// `"{genus} {epithet}"` — species binomials.
    Species,
    /// `"{year}–{year+1} {place} {league-word}"` — league / club seasons.
    LeagueSeason,
    /// `"{place} {league-word} {roman}"` — roman-numeral events.
    RomanEvent,
    /// `"{year} {place} {office} election"`.
    Election,
    /// `"{city}–{city} railway line"` and similar route names.
    Route,
    /// `"{call-letters}-TV ({city})"` — television stations, magazines.
    Media,
    /// Single given names (short, one-token entities).
    GivenName,
    /// `"{place} {art-word} Award"`.
    Award,
}

impl Family {
    fn generate(&self, rng: &mut SmallRng) -> String {
        match self {
            Family::TeamSeason => {
                let year = rng.gen_range(1990..2016);
                format!(
                    "{year} {} {} {} team",
                    PLACES.choose(rng).unwrap(),
                    MASCOTS.choose(rng).unwrap(),
                    SPORTS.choose(rng).unwrap()
                )
            }
            Family::Person => {
                let first = FIRST_NAMES.choose(rng).unwrap();
                let last = LAST_NAMES.choose(rng).unwrap();
                if rng.gen_bool(0.3) {
                    let role = ["wrestler", "politician", "author", "musician"]
                        .choose(rng)
                        .unwrap();
                    format!("{first} {last} ({role})")
                } else {
                    let middle = (b'A' + rng.gen_range(0..26)) as char;
                    format!("{first} {middle}. {last}")
                }
            }
            Family::TitledPerson => {
                let title = [
                    "King",
                    "Queen",
                    "Bishop",
                    "Duke",
                    "Baron",
                    "Archbishop",
                    "Count",
                ]
                .choose(rng)
                .unwrap();
                format!(
                    "{title} {} {} of {}",
                    FIRST_NAMES.choose(rng).unwrap(),
                    ROMAN.choose(rng).unwrap(),
                    CITIES.choose(rng).unwrap()
                )
            }
            Family::Organization => format!(
                "{} {} {}",
                REGIONS.choose(rng).unwrap(),
                PLACES.choose(rng).unwrap(),
                ORG_KINDS.choose(rng).unwrap()
            ),
            Family::Facility => format!(
                "{} {} {}",
                GRAND_ADJECTIVES.choose(rng).unwrap(),
                CITIES.choose(rng).unwrap(),
                FACILITY_KINDS.choose(rng).unwrap()
            ),
            Family::DrugCode => {
                let syllables = 2 + rng.gen_range(0..2);
                let mut name: String = (0..syllables)
                    .map(|_| *DRUG_SYLLABLES.choose(rng).unwrap())
                    .collect();
                if let Some(c) = name.get_mut(0..1) {
                    let upper = c.to_uppercase();
                    name.replace_range(0..1, &upper);
                }
                if rng.gen_bool(0.4) {
                    format!("{name}-{}", rng.gen_range(10..999))
                } else {
                    name
                }
            }
            Family::CatalogCode => {
                let prefix = ["NGC", "IC", "USA", "Kosmos", "Explorer", "GSAT", "Messier"]
                    .choose(rng)
                    .unwrap();
                format!("{prefix} {}", rng.gen_range(100..9999))
            }
            Family::Artwork => {
                if rng.gen_bool(0.5) {
                    format!(
                        "{} No. {} in {} {}",
                        ART_WORDS.choose(rng).unwrap(),
                        rng.gen_range(1..30),
                        ["C", "D", "E", "F", "G", "A", "B"].choose(rng).unwrap(),
                        ["major", "minor"].choose(rng).unwrap()
                    )
                } else {
                    format!(
                        "{} of {} ({})",
                        ART_WORDS.choose(rng).unwrap(),
                        CITIES.choose(rng).unwrap(),
                        rng.gen_range(1700..2015)
                    )
                }
            }
            Family::Species => format!(
                "{} {}",
                GENERA.choose(rng).unwrap(),
                SPECIES_EPITHETS.choose(rng).unwrap()
            ),
            Family::LeagueSeason => {
                let year = rng.gen_range(1980..2016);
                format!(
                    "{year}–{} {} {} season",
                    (year + 1) % 100,
                    PLACES.choose(rng).unwrap(),
                    LEAGUE_WORDS.choose(rng).unwrap()
                )
            }
            Family::RomanEvent => format!(
                "{} {} {}",
                PLACES.choose(rng).unwrap(),
                LEAGUE_WORDS.choose(rng).unwrap(),
                ROMAN.choose(rng).unwrap()
            ),
            Family::Election => {
                let office = [
                    "gubernatorial",
                    "senate",
                    "mayoral",
                    "presidential",
                    "state",
                ]
                .choose(rng)
                .unwrap();
                format!(
                    "{} {} {office} election",
                    rng.gen_range(1950..2016),
                    PLACES.choose(rng).unwrap()
                )
            }
            Family::Route => {
                let a = CITIES.choose(rng).unwrap();
                let b = CITIES.choose(rng).unwrap();
                let kind = ["railway line", "metro line", "bus route", "canal"]
                    .choose(rng)
                    .unwrap();
                format!("{a}–{b} {kind}")
            }
            Family::Media => {
                if rng.gen_bool(0.5) {
                    let letters: String = (0..4)
                        .map(|_| (b'A' + rng.gen_range(0..26)) as char)
                        .collect();
                    format!("{letters}-TV ({})", CITIES.choose(rng).unwrap())
                } else {
                    format!(
                        "{} {} Magazine",
                        CITIES.choose(rng).unwrap(),
                        GENRES.choose(rng).unwrap()
                    )
                }
            }
            Family::GivenName => {
                let base = FIRST_NAMES.choose(rng).unwrap();
                let suffix = ["", "a", "ine", "ton", "ette", "son", "ia", "el"]
                    .choose(rng)
                    .unwrap();
                format!("{base}{suffix}")
            }
            Family::Award => format!(
                "{} {} Award",
                PLACES.choose(rng).unwrap(),
                ART_WORDS.choose(rng).unwrap()
            ),
        }
    }
}

/// Specification of one benchmark task.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DomainSpec {
    /// Task name (mirrors the paper's Table 2 dataset names).
    pub name: String,
    /// Template family used for canonical names.
    pub family: Family,
    /// Number of distinct canonical entities to generate.
    pub num_entities: usize,
    /// Fraction of entities present in the reference table `L`.
    pub left_coverage: f64,
    /// Number of query records in `R`.
    pub num_right: usize,
    /// Variation mix for query records.
    pub mix: PerturbationMix,
    /// RNG seed (each task is fully deterministic).
    pub seed: u64,
}

impl DomainSpec {
    /// Generate the task described by this spec.
    pub fn generate(&self) -> SingleColumnTask {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        // 1. Unique canonical names.
        let mut canonical: Vec<String> = Vec::with_capacity(self.num_entities);
        let mut seen: HashSet<String> = HashSet::with_capacity(self.num_entities);
        let mut attempts = 0usize;
        while canonical.len() < self.num_entities && attempts < self.num_entities * 200 {
            attempts += 1;
            let mut name = self.family.generate(&mut rng);
            if seen.contains(&name) {
                // Family vocabularies are finite; disambiguate with a numeric
                // suffix the way Wikipedia disambiguates colliding titles.
                name = format!("{name} ({})", rng.gen_range(2..40));
                if seen.contains(&name) {
                    continue;
                }
            }
            seen.insert(name.clone());
            canonical.push(name);
        }

        // 2. Reference table: a random subset of the entities.
        let num_left = ((canonical.len() as f64) * self.left_coverage).round() as usize;
        let mut entity_indices: Vec<usize> = (0..canonical.len()).collect();
        entity_indices.shuffle(&mut rng);
        let in_left: HashSet<usize> = entity_indices.iter().copied().take(num_left).collect();
        let mut left = Vec::with_capacity(num_left);
        let mut left_index_of_entity = vec![None; canonical.len()];
        for (i, name) in canonical.iter().enumerate() {
            if in_left.contains(&i) {
                left_index_of_entity[i] = Some(left.len());
                left.push(name.clone());
            }
        }

        // 3. Query table: perturbed variants of random entities (some absent
        //    from L), many-to-one by construction.  The matched / unmatched
        //    split follows `left_coverage` exactly so every task exercises
        //    both the "counterpart exists" and the "counterpart missing"
        //    paths regardless of its size.
        let out_of_left: Vec<usize> = (0..canonical.len())
            .filter(|i| left_index_of_entity[*i].is_none())
            .collect();
        let in_left: Vec<usize> = (0..canonical.len())
            .filter(|i| left_index_of_entity[*i].is_some())
            .collect();
        let mut num_unmatched =
            ((self.num_right as f64) * (1.0 - self.left_coverage)).round() as usize;
        if !out_of_left.is_empty() {
            num_unmatched = num_unmatched.clamp(1, self.num_right.saturating_sub(1));
        } else {
            num_unmatched = 0;
        }
        let mut entity_choices: Vec<usize> = Vec::with_capacity(self.num_right);
        for k in 0..self.num_right {
            let pool = if k < num_unmatched {
                &out_of_left
            } else {
                &in_left
            };
            entity_choices.push(*pool.choose(&mut rng).expect("non-empty entity pool"));
        }
        entity_choices.shuffle(&mut rng);
        let mut right = Vec::with_capacity(self.num_right);
        let mut ground_truth = Vec::with_capacity(self.num_right);
        for entity in entity_choices {
            let variant = self.mix.perturb(&canonical[entity], &mut rng);
            right.push(variant);
            ground_truth.push(left_index_of_entity[entity]);
        }

        let task = SingleColumnTask {
            name: self.name.clone(),
            left,
            right,
            ground_truth,
        };
        debug_assert!(task.validate().is_ok());
        task
    }
}

/// Size class of the generated benchmark (scales row counts so the full
/// 50-task sweep stays laptop-friendly while the structure is unchanged).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BenchmarkScale {
    /// ~120 reference rows per task — used in unit/integration tests.
    Tiny,
    /// ~400 reference rows per task — default for the experiment harness.
    Small,
    /// ~1500 reference rows per task — closer to the paper's table sizes.
    Full,
}

impl BenchmarkScale {
    fn entities(&self, base: usize) -> usize {
        match self {
            BenchmarkScale::Tiny => (base / 8).max(60),
            BenchmarkScale::Small => (base / 3).max(150),
            BenchmarkScale::Full => base,
        }
    }
    fn rights(&self, base: usize) -> usize {
        match self {
            BenchmarkScale::Tiny => (base / 8).max(40),
            BenchmarkScale::Small => (base / 3).max(80),
            BenchmarkScale::Full => base,
        }
    }
}

/// The 50 benchmark task specifications (names follow Table 2 of the paper).
pub fn benchmark_specs(scale: BenchmarkScale) -> Vec<DomainSpec> {
    // (name, family, base entities, base rights, coverage, mix kind)
    // mix kind: 0 = balanced, 1 = token heavy, 2 = char heavy.
    let raw: &[(&str, Family, usize, usize, f64, u8)] = &[
        ("Amphibian", Family::Species, 1200, 400, 0.90, 2),
        (
            "ArtificialSatellite",
            Family::CatalogCode,
            1200,
            300,
            0.85,
            2,
        ),
        ("Artwork", Family::Artwork, 1500, 250, 0.92, 0),
        ("Award", Family::Award, 1400, 380, 0.90, 1),
        ("BasketballTeam", Family::TeamSeason, 900, 170, 0.88, 0),
        ("Case", Family::CatalogCode, 1200, 380, 0.95, 0),
        ("ChristianBishop", Family::TitledPerson, 1800, 490, 0.90, 0),
        ("CAR", Family::DrugCode, 1300, 190, 0.92, 2),
        ("Country", Family::Organization, 1400, 290, 0.88, 1),
        ("Device", Family::CatalogCode, 2000, 650, 0.90, 0),
        ("Drug", Family::DrugCode, 1800, 160, 0.85, 2),
        ("Election", Family::Election, 2000, 720, 0.92, 1),
        ("Enzyme", Family::DrugCode, 1500, 100, 0.88, 2),
        ("EthnicGroup", Family::Organization, 1600, 900, 0.90, 0),
        (
            "FootballLeagueSeason",
            Family::LeagueSeason,
            1600,
            280,
            0.90,
            1,
        ),
        ("FootballMatch", Family::RomanEvent, 1000, 100, 0.92, 0),
        ("Galaxy", Family::CatalogCode, 550, 60, 0.85, 2),
        ("GivenName", Family::GivenName, 1200, 150, 0.92, 2),
        ("GovernmentAgency", Family::Organization, 1500, 570, 0.90, 0),
        ("HistoricBuilding", Family::Facility, 1800, 510, 0.92, 0),
        ("Hospital", Family::Facility, 1200, 260, 0.88, 1),
        ("Legislature", Family::Organization, 900, 220, 0.90, 0),
        ("Magazine", Family::Media, 1500, 270, 0.90, 0),
        ("MemberOfParliament", Family::Person, 2000, 500, 0.92, 0),
        ("Monarch", Family::TitledPerson, 1000, 240, 0.88, 0),
        ("MotorsportSeason", Family::LeagueSeason, 800, 380, 0.95, 1),
        ("Museum", Family::Facility, 1500, 300, 0.88, 1),
        ("NCAATeamSeason", Family::TeamSeason, 1900, 80, 0.95, 1),
        ("NFLS", Family::LeagueSeason, 1100, 40, 0.95, 0),
        ("NaturalEvent", Family::RomanEvent, 700, 60, 0.85, 0),
        ("Noble", Family::TitledPerson, 1300, 360, 0.90, 0),
        ("PoliticalParty", Family::Organization, 1800, 500, 0.88, 1),
        ("Race", Family::RomanEvent, 1200, 180, 0.85, 1),
        ("RailwayLine", Family::Route, 1100, 300, 0.88, 0),
        ("Reptile", Family::Species, 800, 800, 0.95, 0),
        ("RugbyLeague", Family::LeagueSeason, 500, 70, 0.88, 0),
        ("ShoppingMall", Family::Facility, 300, 230, 0.95, 0),
        ("SoccerClubSeason", Family::LeagueSeason, 700, 60, 0.95, 1),
        ("SoccerLeague", Family::Organization, 700, 240, 0.85, 1),
        ("SoccerTournament", Family::RomanEvent, 1300, 290, 0.92, 1),
        ("Song", Family::Artwork, 1900, 440, 0.92, 0),
        ("SportFacility", Family::Facility, 2000, 670, 0.85, 1),
        ("SportsLeague", Family::Organization, 1200, 480, 0.85, 1),
        ("Stadium", Family::Facility, 1800, 620, 0.85, 1),
        ("TelevisionStation", Family::Media, 2000, 1000, 0.88, 1),
        ("TennisTournament", Family::RomanEvent, 350, 40, 0.90, 0),
        ("Tournament", Family::RomanEvent, 1600, 460, 0.88, 0),
        ("UnitOfWork", Family::CatalogCode, 1200, 380, 0.95, 0),
        ("Venue", Family::Facility, 1500, 380, 0.88, 0),
        ("Wrestler", Family::Person, 1300, 460, 0.82, 1),
    ];
    raw.iter()
        .enumerate()
        .map(|(i, (name, family, ents, rights, cov, mix))| DomainSpec {
            name: name.to_string(),
            family: *family,
            num_entities: scale.entities(*ents),
            left_coverage: *cov,
            num_right: scale.rights(*rights),
            mix: match mix {
                1 => PerturbationMix::token_heavy(),
                2 => PerturbationMix::char_heavy(),
                _ => PerturbationMix::balanced(),
            },
            seed: 0xA07F_0000 + i as u64,
        })
        .collect()
}

/// The medium-scale (≥ 10k × 10k) smoke-benchmark task used by the
/// `bench_smoke` gate's `medium` section: large enough that the execution
/// engine's parallelism has real work to amortize over (the committed small
/// task is only ~143×80, where thread-pool overhead dominates), yet fully
/// deterministic and generated on the fly in a few hundred milliseconds.
pub fn medium_smoke_spec() -> DomainSpec {
    DomainSpec {
        name: "TeamSeasonMedium".to_string(),
        family: Family::TeamSeason,
        // ⌈11_200 · 0.92⌉ = 10_304 reference rows.
        num_entities: 11_200,
        left_coverage: 0.92,
        num_right: 10_500,
        mix: PerturbationMix::balanced(),
        seed: 0xA07F_5000,
    }
}

/// The large-scale (≥ 100k × 100k) benchmark task behind the
/// `AUTOFJ_SCALE=large` tier: the scale the ROADMAP's production north star
/// targets, where blocking without candidate pruning would walk ~10¹¹
/// posting entries.  Seeded and profile-pinned like every other spec — the
/// generated tables are byte-identical on every run and host.
pub fn large_spec() -> DomainSpec {
    DomainSpec {
        name: "TeamSeasonLarge".to_string(),
        family: Family::TeamSeason,
        // ⌈109_000 · 0.92⌉ = 100_280 reference rows.
        num_entities: 109_000,
        left_coverage: 0.92,
        num_right: 100_000,
        mix: PerturbationMix::balanced(),
        seed: 0xA07F_A00E,
    }
}

/// Generate the whole 50-task benchmark at the given scale.
pub fn generate_benchmark(scale: BenchmarkScale) -> Vec<SingleColumnTask> {
    benchmark_specs(scale)
        .iter()
        .map(DomainSpec::generate)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_exactly_50_specs_with_unique_names() {
        let specs = benchmark_specs(BenchmarkScale::Tiny);
        assert_eq!(specs.len(), 50);
        let names: HashSet<_> = specs.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), 50);
    }

    #[test]
    fn generated_tasks_are_valid_and_nontrivial() {
        for spec in benchmark_specs(BenchmarkScale::Tiny).iter().take(10) {
            let task = spec.generate();
            task.validate().expect("task must be internally consistent");
            assert!(task.left.len() >= 40, "{}: L too small", task.name);
            assert!(task.right.len() >= 30, "{}: R too small", task.name);
            // There should be both matched and unmatched right records.
            assert!(task.num_matches() > 0, "{}: no matches", task.name);
            assert!(
                task.num_matches() < task.right.len(),
                "{}: every right record has a match (L should be incomplete)",
                task.name
            );
            // No exact equi-joins: a right record never equals its ground
            // truth left record verbatim.
            for (r, gt) in task.ground_truth.iter().enumerate() {
                if let Some(l) = gt {
                    assert_ne!(task.right[r], task.left[*l]);
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = &benchmark_specs(BenchmarkScale::Tiny)[0];
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.left, b.left);
        assert_eq!(a.right, b.right);
        assert_eq!(a.ground_truth, b.ground_truth);
    }

    #[test]
    fn different_tasks_differ() {
        let specs = benchmark_specs(BenchmarkScale::Tiny);
        let a = specs[0].generate();
        let b = specs[1].generate();
        assert_ne!(a.left, b.left);
    }

    #[test]
    fn medium_smoke_task_is_at_least_10k_by_10k() {
        let task = medium_smoke_spec().generate();
        task.validate().expect("medium task must be consistent");
        assert!(task.left.len() >= 10_000, "|L| = {}", task.left.len());
        assert!(task.right.len() >= 10_000, "|R| = {}", task.right.len());
        assert!(task.num_matches() > 0);
        assert!(task.num_matches() < task.right.len());
    }

    #[test]
    fn large_spec_is_at_least_100k_by_100k() {
        let spec = large_spec();
        assert!((spec.num_entities as f64 * spec.left_coverage).round() as usize >= 100_000);
        assert!(spec.num_right >= 100_000);
    }

    // Generation takes a few seconds at this size, so the full-table check
    // runs on the CI large leg (`cargo test -- --ignored`), not in tier-1.
    #[test]
    #[ignore = "large-scale generation; run explicitly or on the CI large leg"]
    fn large_task_generates_consistently_at_scale() {
        let task = large_spec().generate();
        task.validate().expect("large task must be consistent");
        assert!(task.left.len() >= 100_000, "|L| = {}", task.left.len());
        assert!(task.right.len() >= 100_000, "|R| = {}", task.right.len());
        assert!(task.num_matches() > 0);
        assert!(task.num_matches() < task.right.len());
    }

    #[test]
    fn scales_are_ordered() {
        let tiny = &benchmark_specs(BenchmarkScale::Tiny)[0];
        let small = &benchmark_specs(BenchmarkScale::Small)[0];
        let full = &benchmark_specs(BenchmarkScale::Full)[0];
        assert!(tiny.num_entities <= small.num_entities);
        assert!(small.num_entities <= full.num_entities);
    }

    #[test]
    fn every_family_generates_parsable_names() {
        let mut rng = SmallRng::seed_from_u64(1);
        for family in [
            Family::TeamSeason,
            Family::Person,
            Family::TitledPerson,
            Family::Organization,
            Family::Facility,
            Family::DrugCode,
            Family::CatalogCode,
            Family::Artwork,
            Family::Species,
            Family::LeagueSeason,
            Family::RomanEvent,
            Family::Election,
            Family::Route,
            Family::Media,
            Family::GivenName,
            Family::Award,
        ] {
            for _ in 0..20 {
                let name = family.generate(&mut rng);
                assert!(!name.trim().is_empty());
                assert!(name.len() < 120);
            }
        }
    }
}
