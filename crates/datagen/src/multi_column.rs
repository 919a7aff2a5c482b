//! Synthetic multi-column benchmark (stand-in for the 8 Magellan-repository
//! datasets of Table 3).
//!
//! Each task mirrors the *structure* of its real counterpart: the same
//! domain, a comparable number of attributes, one or two genuinely
//! informative columns, several noisy or irrelevant columns, missing values,
//! and similar `|L| : |R|` ratios.  The informative columns are recorded on
//! the task (hidden from the algorithms) so tests and the Table 4(a) harness
//! can check column selection.

use crate::perturb::PerturbationMix;
use crate::task::MultiColumnTask;
use crate::words::*;
use autofj_core::{Column, Table};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Identifier of one multi-column benchmark dataset (paper's Table 3 codes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MultiColumnDataset {
    /// Fodors–Zagats (restaurants, 6 attributes).
    FZ,
    /// DBLP–ACM (citations, 4 attributes).
    DA,
    /// Abt–Buy (products, 3 attributes).
    AB,
    /// RottenTomatoes–IMDB (movies, 10 attributes).
    RI,
    /// BeerAdvo–RateBeer (beers, 4 attributes).
    BR,
    /// Amazon–Barnes&Noble (books, 11 attributes).
    ABN,
    /// iTunes–Amazon Music (music, 8 attributes).
    IA,
    /// Babies'R'Us–BuyBuyBaby (baby products, 16 attributes).
    BB,
}

impl MultiColumnDataset {
    /// All eight datasets in Table 3 order.
    pub const ALL: [MultiColumnDataset; 8] = [
        MultiColumnDataset::FZ,
        MultiColumnDataset::DA,
        MultiColumnDataset::AB,
        MultiColumnDataset::RI,
        MultiColumnDataset::BR,
        MultiColumnDataset::ABN,
        MultiColumnDataset::IA,
        MultiColumnDataset::BB,
    ];

    /// The dataset's short code.
    pub fn code(&self) -> &'static str {
        match self {
            MultiColumnDataset::FZ => "FZ",
            MultiColumnDataset::DA => "DA",
            MultiColumnDataset::AB => "AB",
            MultiColumnDataset::RI => "RI",
            MultiColumnDataset::BR => "BR",
            MultiColumnDataset::ABN => "ABN",
            MultiColumnDataset::IA => "IA",
            MultiColumnDataset::BB => "BB",
        }
    }

    /// The domain label shown in Table 3.
    pub fn domain(&self) -> &'static str {
        match self {
            MultiColumnDataset::FZ => "Restaurant",
            MultiColumnDataset::DA => "Citation",
            MultiColumnDataset::AB => "Product",
            MultiColumnDataset::RI => "Movie",
            MultiColumnDataset::BR => "Beer",
            MultiColumnDataset::ABN => "Book",
            MultiColumnDataset::IA => "Music",
            MultiColumnDataset::BB => "Baby Product",
        }
    }

    fn sizes(&self, scale: f64) -> (usize, usize) {
        let (l, r) = match self {
            MultiColumnDataset::FZ => (530, 330),
            MultiColumnDataset::DA => (1300, 1100),
            MultiColumnDataset::AB => (1080, 1090),
            MultiColumnDataset::RI => (1800, 550),
            MultiColumnDataset::BR => (1500, 270),
            MultiColumnDataset::ABN => (1400, 350),
            MultiColumnDataset::IA => (1700, 480),
            MultiColumnDataset::BB => (1900, 290),
        };
        (
            ((l as f64 * scale) as usize).max(60),
            ((r as f64 * scale) as usize).max(40),
        )
    }

    /// Generate the synthetic analog of this dataset.
    pub fn generate(&self, scale: f64, seed: u64) -> MultiColumnTask {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_0000);
        let (num_left, num_right) = self.sizes(scale);
        let gen = EntityGen::for_dataset(*self);
        let mix = PerturbationMix::balanced();

        // Canonical entities.
        let mut entities: Vec<Vec<String>> = Vec::with_capacity(num_left + num_right / 2);
        let mut key_seen: HashSet<String> = HashSet::new();
        let total_entities = num_left + num_right / 3;
        let mut attempts = 0;
        while entities.len() < total_entities && attempts < total_entities * 100 {
            attempts += 1;
            let row = gen.generate_row(&mut rng);
            let key = row[gen.key_column].clone();
            if key_seen.insert(key) {
                entities.push(row);
            }
        }

        // L = first `num_left` entities.
        let num_left = num_left.min(entities.len());
        let mut left_cols: Vec<Vec<String>> = vec![Vec::new(); gen.columns.len()];
        for row in entities.iter().take(num_left) {
            for (c, v) in row.iter().enumerate() {
                left_cols[c].push(v.clone());
            }
        }

        // R = perturbed variants of random entities (in or out of L).
        let mut right_cols: Vec<Vec<String>> = vec![Vec::new(); gen.columns.len()];
        let mut ground_truth = Vec::with_capacity(num_right);
        for _ in 0..num_right {
            let e = rng.gen_range(0..entities.len());
            ground_truth.push(if e < num_left { Some(e) } else { None });
            for (c, v) in entities[e].iter().enumerate() {
                let value = if gen.informative.contains(&c) {
                    // Perturb informative columns so the join is fuzzy.
                    if v.is_empty() {
                        String::new()
                    } else {
                        mix.perturb(v, &mut rng)
                    }
                } else if gen.stable.contains(&c) {
                    // Secondary informative columns: copied (sometimes missing).
                    if rng.gen_bool(0.1) {
                        String::new()
                    } else {
                        v.clone()
                    }
                } else {
                    // Irrelevant columns: regenerate fresh noise.
                    gen.noise_value(c, &mut rng)
                };
                right_cols[c].push(value);
            }
        }

        let left = Table::new(
            &format!("{}-L", self.code()),
            gen.columns
                .iter()
                .zip(left_cols)
                .map(|(name, values)| Column::new(name, values))
                .collect(),
        );
        let right = Table::new(
            &format!("{}-R", self.code()),
            gen.columns
                .iter()
                .zip(right_cols)
                .map(|(name, values)| Column::new(name, values))
                .collect(),
        );
        let informative_columns = gen
            .informative
            .iter()
            .chain(gen.stable.iter())
            .map(|&c| gen.columns[c].to_string())
            .collect();
        let task = MultiColumnTask {
            name: self.code().to_string(),
            domain: self.domain().to_string(),
            left,
            right,
            ground_truth,
            informative_columns,
        };
        debug_assert!(task.validate().is_ok());
        task
    }
}

/// Column layout + value generators for one dataset.
struct EntityGen {
    columns: Vec<&'static str>,
    /// Primary informative (perturbed in R) columns.
    informative: Vec<usize>,
    /// Secondary informative (copied, occasionally missing) columns.
    stable: Vec<usize>,
    key_column: usize,
    dataset: MultiColumnDataset,
}

impl EntityGen {
    fn for_dataset(d: MultiColumnDataset) -> Self {
        use MultiColumnDataset::*;
        let (columns, informative, stable): (Vec<&'static str>, Vec<usize>, Vec<usize>) = match d {
            FZ => (
                vec!["name", "addr", "city", "phone", "type", "class"],
                vec![0],
                vec![3],
            ),
            DA => (vec!["title", "authors", "venue", "year"], vec![0], vec![3]),
            AB => (vec!["name", "description", "price"], vec![0], vec![]),
            RI => (
                vec![
                    "name", "director", "year", "rating", "genre", "duration", "studio",
                    "language", "country", "review",
                ],
                vec![0],
                vec![1],
            ),
            BR => (
                vec!["beer_name", "factory_name", "style", "abv"],
                vec![0],
                vec![1],
            ),
            ABN => (
                vec![
                    "title",
                    "author",
                    "pages",
                    "publisher",
                    "isbn_prefix",
                    "year",
                    "format",
                    "language",
                    "edition",
                    "series",
                    "blurb",
                ],
                vec![0],
                vec![2],
            ),
            IA => (
                vec![
                    "song_name",
                    "artist",
                    "album",
                    "genre",
                    "price",
                    "copyright",
                    "time",
                    "released",
                ],
                vec![0],
                vec![3],
            ),
            BB => (
                vec![
                    "title",
                    "company_struct",
                    "brand",
                    "weight",
                    "length",
                    "width",
                    "height",
                    "fabrics",
                    "colors",
                    "materials",
                    "price",
                    "category",
                    "sku_prefix",
                    "pack_size",
                    "age_range",
                    "blurb",
                ],
                vec![0],
                vec![1],
            ),
        };
        Self {
            columns,
            informative,
            stable,
            key_column: 0,
            dataset: d,
        }
    }

    fn generate_row(&self, rng: &mut SmallRng) -> Vec<String> {
        (0..self.columns.len())
            .map(|c| self.canonical_value(c, rng))
            .collect()
    }

    fn canonical_value(&self, col: usize, rng: &mut SmallRng) -> String {
        use MultiColumnDataset::*;
        let name = self.columns[col];
        match (self.dataset, name) {
            (FZ, "name") => format!(
                "{} {} {}",
                GRAND_ADJECTIVES.choose(rng).unwrap(),
                CUISINES.choose(rng).unwrap(),
                ["Kitchen", "Bistro", "Grill", "Cafe", "House", "Table"]
                    .choose(rng)
                    .unwrap()
            ),
            (FZ, "addr") => format!(
                "{} {} {}",
                rng.gen_range(1..999),
                LAST_NAMES.choose(rng).unwrap(),
                STREET_TYPES.choose(rng).unwrap()
            ),
            (FZ, "city") => CITIES.choose(rng).unwrap().to_string(),
            (FZ, "phone") => format!(
                "{}-{}-{:04}",
                rng.gen_range(200..999),
                rng.gen_range(200..999),
                rng.gen_range(0..9999)
            ),
            (FZ, "type") => CUISINES.choose(rng).unwrap().to_string(),
            (FZ, "class") => rng.gen_range(0..200).to_string(),
            (DA, "title") => format!(
                "{} for {} in {} Systems",
                [
                    "A Survey of",
                    "Efficient",
                    "Scalable",
                    "Adaptive",
                    "Learned",
                    "Robust"
                ]
                .choose(rng)
                .unwrap(),
                TOPICS.choose(rng).unwrap(),
                [
                    "Distributed",
                    "Parallel",
                    "Cloud",
                    "Streaming",
                    "Relational",
                    "Modern"
                ]
                .choose(rng)
                .unwrap()
            ),
            (DA, "authors") => format!(
                "{} {}, {} {}",
                FIRST_NAMES.choose(rng).unwrap(),
                LAST_NAMES.choose(rng).unwrap(),
                FIRST_NAMES.choose(rng).unwrap(),
                LAST_NAMES.choose(rng).unwrap()
            ),
            (DA, "venue") => VENUES.choose(rng).unwrap().to_string(),
            (DA, "year") => rng.gen_range(1995..2021).to_string(),
            (AB, "name") => format!(
                "{} {} {} {}",
                LAST_NAMES.choose(rng).unwrap(),
                BRAND_SUFFIXES.choose(rng).unwrap(),
                PRODUCT_NOUNS.choose(rng).unwrap(),
                format_args!(
                    "{}{}",
                    ["X", "Pro ", "Mini ", "Max ", "S"].choose(rng).unwrap(),
                    rng.gen_range(1..99)
                )
            ),
            (AB, "description") => format!(
                "{} {} with {} finish",
                COLORS.choose(rng).unwrap(),
                PRODUCT_NOUNS.choose(rng).unwrap(),
                COLORS.choose(rng).unwrap()
            ),
            (AB, "price") => format!("{}.99", rng.gen_range(9..499)),
            (RI, "name") => format!(
                "The {} {}",
                ART_WORDS.choose(rng).unwrap(),
                [
                    "Returns",
                    "Rises",
                    "Chronicles",
                    "Affair",
                    "Conspiracy",
                    "Legacy"
                ]
                .choose(rng)
                .unwrap()
            ),
            (RI, "director") => format!(
                "{} {}",
                FIRST_NAMES.choose(rng).unwrap(),
                LAST_NAMES.choose(rng).unwrap()
            ),
            (RI, "year") | (ABN, "year") => rng.gen_range(1970..2021).to_string(),
            (RI, "rating") => format!("{:.1}", rng.gen_range(10..100) as f64 / 10.0),
            (RI, "genre") => GENRES.choose(rng).unwrap().to_string(),
            (RI, "duration") => format!("{} min", rng.gen_range(80..200)),
            (RI, "studio") => format!(
                "{} {}",
                CITIES.choose(rng).unwrap(),
                BRAND_SUFFIXES.choose(rng).unwrap()
            ),
            (RI, "language") | (ABN, "language") => {
                ["English", "French", "Spanish", "German", "Japanese"]
                    .choose(rng)
                    .unwrap()
                    .to_string()
            }
            (RI, "country") => PLACES.choose(rng).unwrap().to_string(),
            (BR, "beer_name") => format!(
                "{} {} {}",
                GRAND_ADJECTIVES.choose(rng).unwrap(),
                CITIES.choose(rng).unwrap(),
                ["IPA", "Stout", "Lager", "Porter", "Pilsner", "Ale", "Saison"]
                    .choose(rng)
                    .unwrap()
            ),
            (BR, "factory_name") => format!(
                "{} Brewing {}",
                CITIES.choose(rng).unwrap(),
                ["Company", "Co.", "Works", "Collective"]
                    .choose(rng)
                    .unwrap()
            ),
            (BR, "style") => ["IPA", "Stout", "Lager", "Porter", "Sour", "Wheat"]
                .choose(rng)
                .unwrap()
                .to_string(),
            (BR, "abv") => format!("{:.1}%", rng.gen_range(30..120) as f64 / 10.0),
            (ABN, "title") => format!(
                "The {} of {} {}",
                ART_WORDS.choose(rng).unwrap(),
                FIRST_NAMES.choose(rng).unwrap(),
                LAST_NAMES.choose(rng).unwrap()
            ),
            (ABN, "author") => format!(
                "{} {}",
                FIRST_NAMES.choose(rng).unwrap(),
                LAST_NAMES.choose(rng).unwrap()
            ),
            (ABN, "pages") => rng.gen_range(90..900).to_string(),
            (ABN, "publisher") => format!("{} Press", CITIES.choose(rng).unwrap()),
            (IA, "song_name") => format!(
                "{} {} ({} mix)",
                GRAND_ADJECTIVES.choose(rng).unwrap(),
                ART_WORDS.choose(rng).unwrap(),
                GENRES.choose(rng).unwrap()
            ),
            (IA, "artist") => format!(
                "{} and the {}",
                FIRST_NAMES.choose(rng).unwrap(),
                MASCOTS.choose(rng).unwrap()
            ),
            (IA, "album") => format!(
                "{} {}",
                GENRES.choose(rng).unwrap(),
                ART_WORDS.choose(rng).unwrap()
            ),
            (IA, "genre") => GENRES.choose(rng).unwrap().to_string(),
            (IA, "time") => format!("{}:{:02}", rng.gen_range(2..6), rng.gen_range(0..60)),
            (IA, "released") => rng.gen_range(1990..2021).to_string(),
            (BB, "title") => format!(
                "{} {} {} {}",
                LAST_NAMES.choose(rng).unwrap(),
                BRAND_SUFFIXES.choose(rng).unwrap(),
                COLORS.choose(rng).unwrap(),
                [
                    "Stroller",
                    "Crib",
                    "Carrier",
                    "High Chair",
                    "Play Mat",
                    "Bouncer"
                ]
                .choose(rng)
                .unwrap()
            ),
            (BB, "company_struct") => format!(
                "{} {}",
                LAST_NAMES.choose(rng).unwrap(),
                BRAND_SUFFIXES.choose(rng).unwrap()
            ),
            (BB, "brand") => LAST_NAMES.choose(rng).unwrap().to_string(),
            (BB, "price") => format!("{}.99", rng.gen_range(19..399)),
            _ => self.noise_value(col, rng),
        }
    }

    /// Generic noisy / irrelevant value generator for the remaining columns.
    fn noise_value(&self, col: usize, rng: &mut SmallRng) -> String {
        if rng.gen_bool(0.15) {
            return String::new(); // missing value
        }
        match col % 4 {
            0 => format!(
                "{}{}",
                LAST_NAMES.choose(rng).unwrap(),
                rng.gen_range(0..99)
            ),
            1 => format!(
                "{} {}",
                COLORS.choose(rng).unwrap(),
                PRODUCT_NOUNS.choose(rng).unwrap()
            ),
            2 => format!("{:.2}", rng.gen_range(0..10_000) as f64 / 100.0),
            _ => format!(
                "{} {} {}",
                GENRES.choose(rng).unwrap(),
                CITIES.choose(rng).unwrap(),
                rng.gen_range(0..999)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_eight_datasets_generate_valid_tasks() {
        for d in MultiColumnDataset::ALL {
            let task = d.generate(0.1, 7);
            task.validate().expect("valid task");
            assert!(task.left.len() >= 50, "{}: left too small", task.name);
            assert!(task.num_matches() > 0, "{}: no matches", task.name);
            assert!(!task.informative_columns.is_empty());
        }
    }

    #[test]
    fn column_counts_match_table_3() {
        let expected = [
            (MultiColumnDataset::FZ, 6),
            (MultiColumnDataset::DA, 4),
            (MultiColumnDataset::AB, 3),
            (MultiColumnDataset::RI, 10),
            (MultiColumnDataset::BR, 4),
            (MultiColumnDataset::ABN, 11),
            (MultiColumnDataset::IA, 8),
            (MultiColumnDataset::BB, 16),
        ];
        for (d, cols) in expected {
            let task = d.generate(0.05, 1);
            assert_eq!(task.left.num_columns(), cols, "{}", d.code());
            assert_eq!(task.right.num_columns(), cols, "{}", d.code());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = MultiColumnDataset::BR.generate(0.1, 3);
        let b = MultiColumnDataset::BR.generate(0.1, 3);
        assert_eq!(a.right.concatenated_rows(), b.right.concatenated_rows());
        assert_eq!(a.ground_truth, b.ground_truth);
    }

    #[test]
    fn informative_column_is_perturbed_not_copied() {
        let task = MultiColumnDataset::DA.generate(0.1, 5);
        let title_l = task.left.column_by_name("title").unwrap();
        let title_r = task.right.column_by_name("title").unwrap();
        let mut exact = 0;
        for (r, gt) in task.ground_truth.iter().enumerate() {
            if let Some(l) = gt {
                if title_r.values[r] == title_l.values[*l] {
                    exact += 1;
                }
            }
        }
        assert_eq!(
            exact, 0,
            "informative column should never be copied verbatim"
        );
    }

    #[test]
    fn reference_keys_are_unique() {
        let task = MultiColumnDataset::IA.generate(0.1, 9);
        let keys: HashSet<_> = task.left.column(0).values.iter().collect();
        assert_eq!(keys.len(), task.left.len());
    }
}
