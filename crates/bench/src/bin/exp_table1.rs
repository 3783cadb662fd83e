//! E-T1 — reproduces **Table 1** (the annotated-dataset inventory).
//!
//! Prints the paper's corpus inventory (name, year, source, #tags) and, for
//! every corpus this workspace emulates, generates its synthetic analog and
//! reports measured statistics (sentences, tokens, entities, measured #tags,
//! nesting fraction) so the substitution of DESIGN.md §1 is auditable.

use ner_bench::{init_harness, print_table, write_report, Scale};
use ner_corpus::noise::corrupt_dataset;
use ner_corpus::profiles::table1_profiles;
use ner_corpus::NewsGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    name: &'static str,
    year: &'static str,
    source: &'static str,
    paper_tags: usize,
    analog: String,
    sentences: usize,
    tokens: usize,
    entities: usize,
    measured_tags: usize,
    nested_pct: f64,
}

fn main() {
    let scale = Scale::from_args();
    init_harness("table1", 41, scale);
    let n = scale.size(400);
    let mut rows = Vec::new();
    for profile in table1_profiles() {
        let (analog, stats) = match profile.generator_config() {
            None => ("(not emulated)".to_string(), None),
            Some(cfg) => {
                let mut rng = StdRng::seed_from_u64(41);
                let mut ds = NewsGenerator::new(cfg).dataset(&mut rng, n);
                let label = if let Some(noise) = profile.noise_model() {
                    ds = corrupt_dataset(&ds, &noise, &mut rng);
                    "news+noise channel"
                } else if matches!(profile.analog, ner_corpus::profiles::Analog::Nested) {
                    "nested news"
                } else {
                    "news generator"
                };
                (label.to_string(), Some(ds.stats()))
            }
        };
        let (sentences, tokens, entities, measured_tags, nested_pct) = match &stats {
            Some(s) => {
                (s.sentences, s.tokens, s.entities, s.entity_types, 100.0 * s.nested_fraction)
            }
            None => (0, 0, 0, 0, 0.0),
        };
        rows.push(Row {
            name: profile.name,
            year: profile.year,
            source: profile.source,
            paper_tags: profile.tags,
            analog,
            sentences,
            tokens,
            entities,
            measured_tags,
            nested_pct,
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.year.to_string(),
                r.source.to_string(),
                r.paper_tags.to_string(),
                r.analog.clone(),
                if r.sentences > 0 { r.sentences.to_string() } else { "-".into() },
                if r.sentences > 0 { r.entities.to_string() } else { "-".into() },
                if r.sentences > 0 { r.measured_tags.to_string() } else { "-".into() },
                if r.sentences > 0 { format!("{:.1}%", r.nested_pct) } else { "-".into() },
            ]
        })
        .collect();
    print_table(
        "Table 1 — annotated datasets for English NER (paper inventory + synthetic analogs)",
        &[
            "Corpus",
            "Year",
            "Text Source",
            "#Tags(paper)",
            "Analog",
            "Sents",
            "Entities",
            "#Tags(measured)",
            "Nested",
        ],
        &table,
    );
    write_report("table1", &rows);
}
