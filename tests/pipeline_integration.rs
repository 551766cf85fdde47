//! Cross-crate integration: the full experiment pipeline on a reduced
//! synthetic corpus, exercising lexicon → synth → analytics → report in
//! one pass.

use cuisine_core::prelude::*;
use cuisine_mining::mine_apriori;
use cuisine_report::{Align, Table};

fn experiment() -> Experiment {
    Experiment::synthetic(&SynthConfig { seed: 1234, scale: 0.03, ..Default::default() })
}

#[test]
fn corpus_structure_matches_scaled_table1() {
    let exp = experiment();
    let corpus = exp.corpus();
    assert_eq!(corpus.populated_cuisines().len(), 25);
    for cuisine in CuisineId::all() {
        let expected = ((cuisine.info().recipes as f64 * 0.03).round() as usize).max(1);
        assert_eq!(corpus.recipe_count(cuisine), expected, "{}", cuisine.code());
    }
}

#[test]
fn table1_rows_are_internally_consistent() {
    let exp = experiment();
    for row in exp.table1() {
        assert!(row.ingredients > 0, "{}", row.code);
        assert_eq!(row.top.len(), row.published.len(), "{}", row.code);
        // Scores must be sorted descending and positive at the head.
        for w in row.top.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        assert!(row.top[0].score > 0.0, "{}: nothing overrepresented?", row.code);
        // Eq. 1 consistency inside each score record.
        for s in &row.top {
            assert!((s.score - (s.local_share - s.global_share)).abs() < 1e-12);
            assert!(s.local_share <= 1.0 && s.global_share <= 1.0);
        }
    }
}

#[test]
fn fig1_fits_agree_with_histograms() {
    let exp = experiment();
    let f = exp.fig1();
    for d in f.per_cuisine.iter().chain(std::iter::once(&f.aggregate)) {
        let fit = d.fit.as_ref().expect("enough data to fit");
        let hist_mean = d.mean().unwrap();
        assert!(
            (fit.mean - hist_mean).abs() < 1e-9,
            "{}: fit mean {} vs histogram mean {}",
            d.code,
            fit.mean,
            hist_mean
        );
        assert!(fit.sd > 0.0);
    }
}

#[test]
fn fig2_row_sums_equal_mean_recipe_size() {
    let exp = experiment();
    let profile = exp.fig2();
    let corpus = exp.corpus();
    for (code, row) in profile.codes.iter().zip(&profile.means) {
        let cuisine: CuisineId = code.parse().unwrap();
        let mean_size = corpus.mean_size_in(cuisine).unwrap();
        let row_sum: f64 = row.iter().sum();
        assert!(
            (row_sum - mean_size).abs() < 1e-9,
            "{code}: category means sum {row_sum} vs mean size {mean_size}"
        );
    }
}

#[test]
fn fig3_matrices_are_consistent_between_modes() {
    let exp = experiment();
    let (ing, ing_matrix) = exp.fig3(ItemMode::Ingredients);
    let (cat, cat_matrix) = exp.fig3(ItemMode::Categories);
    assert_eq!(ing.len(), 25);
    assert_eq!(cat.len(), 25);
    assert!(ing_matrix.average().unwrap() >= 0.0);
    assert!(cat_matrix.average().unwrap() >= 0.0);
    // Category curves are over a 21-item universe; ingredient curves over
    // hundreds. Head frequencies of category curves are near 1 (every
    // recipe uses the common categories), so rank-1 is higher there.
    let ing_head = ing.aggregate.at_rank(1).unwrap();
    let cat_head = cat.aggregate.at_rank(1).unwrap();
    assert!(cat_head >= ing_head);
}

#[test]
fn miners_agree_on_the_real_pipeline() {
    let exp = experiment();
    let lexicon = exp.lexicon();
    let corpus = exp.corpus();
    let cuisine: CuisineId = "KOR".parse().unwrap();
    for mode in [ItemMode::Ingredients, ItemMode::Categories] {
        let ts = TransactionSet::from_cuisine(corpus, cuisine, mode, lexicon);
        let reference = mine_apriori(&ts, ts.absolute_support(0.05));
        assert_eq!(reference, CombinationAnalysis::mine(&ts, 0.05).itemsets, "{mode:?}");
        assert!(!reference.is_empty(), "{mode:?}");
    }
}

#[test]
fn report_renders_table1_without_panicking() {
    let exp = experiment();
    let mut table = Table::new(&["Region", "Recipes", "Ingredients"]).with_aligns(&[
        Align::Left,
        Align::Right,
        Align::Right,
    ]);
    for row in exp.table1() {
        table.push_row(vec![
            row.code,
            row.recipes.to_string(),
            row.ingredients.to_string(),
        ]);
    }
    let rendered = table.render();
    assert_eq!(rendered.lines().count(), 2 + 25);
    let md = table.render_markdown();
    assert!(md.starts_with("| Region |"));
}
