#![warn(missing_docs)]

//! # snb-datagen
//!
//! Deterministic, correlated social-network generator reproducing the
//! LDBC SNB Datagen (spec §2.3.3):
//!
//! * persons with country/gender-correlated attributes drawn from the
//!   property-dictionary model (dictionary `D`, ranking `R`, probability
//!   `F`);
//! * `knows` edges generated along **three correlation dimensions**
//!   (study location/era, interests, random noise) by sorting persons on
//!   a similarity key and picking partners at geometric rank-distance
//!   within a window — this reproduces the homophily / triangle excess
//!   the spec calls out;
//! * a Facebook-like degree distribution, with per-person activity
//!   volume correlated with degree;
//! * forums (walls / albums / groups), posts (uniform background +
//!   *flashmob events*), comment trees, likes, tag enrichment through a
//!   tag-correlation matrix;
//! * CSV serializers (CsvBasic, CsvMergeForeign, CsvComposite,
//!   CsvCompositeMergeForeign — spec Tables 2.13–2.16), and the CsvBasic
//!   reader that is the writer's exact inverse;
//! * update streams: the last ~10% of simulated time is withheld from
//!   the bulk dataset and emitted as insert events IU 1–8 (spec §2.3.4).
//!
//! Everything is a deterministic function of [`GeneratorConfig::seed`].

pub mod activity;
pub mod dictionaries;
pub mod graph;
pub mod knows;
pub mod person;
pub mod serializer;
pub mod stream;

use snb_core::datetime::Date;
use snb_core::scale::ScaleFactor;

pub use activity::{generate_activity_into, ActivitySink};
pub use graph::RawGraph;
pub use person::person_chunks;

/// Parameters of a generation run (spec §2.3.3: "Three parameters
/// determine the generated data: the number of persons, the number of
/// years simulated, and the starting year of simulation").
#[derive(Clone, Debug)]
pub struct GeneratorConfig {
    /// Number of persons.
    pub persons: u64,
    /// First simulated day.
    pub start: Date,
    /// One-past-last simulated day.
    pub end: Date,
    /// Master seed; the whole dataset is a function of it.
    pub seed: u64,
    /// Mean `knows` degree (the Facebook-like distribution is scaled to
    /// this mean).
    pub mean_knows_degree: f64,
    /// Hard degree cap.
    pub max_knows_degree: usize,
    /// Similarity-window width for the correlated edge passes.
    pub window: usize,
    /// Mean wall/group posts contributed per person per unit of degree.
    pub activity_scale: f64,
    /// Number of flashmob events per 100 persons.
    pub flashmob_per_100_persons: f64,
    /// Fraction of posts attached to flashmob events.
    pub flashmob_post_fraction: f64,
}

impl GeneratorConfig {
    /// The configuration for a named scale factor with spec defaults
    /// (3 years starting 2010).
    pub fn for_scale(sf: ScaleFactor) -> Self {
        let (start, end) = ScaleFactor::default_window();
        GeneratorConfig {
            persons: sf.persons,
            start,
            end,
            seed: 53_1389, // arbitrary fixed default; override per run
            mean_knows_degree: 15.0,
            max_knows_degree: 1000,
            window: 100,
            activity_scale: 1.6,
            flashmob_per_100_persons: 2.0,
            flashmob_post_fraction: 0.3,
        }
    }

    /// Convenience: configuration for a scale factor looked up by name.
    pub fn for_scale_name(name: &str) -> Option<Self> {
        ScaleFactor::by_name(name).map(Self::for_scale)
    }

    /// Sets the seed, builder-style.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The timestamp splitting bulk data from the update streams:
    /// `start + BULK_FRACTION * (end - start)` (spec §2.3.4).
    pub fn stream_cut(&self) -> snb_core::datetime::DateTime {
        let total = (self.end.0 - self.start.0) as f64;
        let cut_days = (total * ScaleFactor::BULK_FRACTION) as i32;
        self.start.plus_days(cut_days).at_midnight()
    }
}

/// Runs the full generation pipeline and returns the raw network.
///
/// The passes mirror Figure 2.2 of the spec: load dictionaries →
/// generate persons → three correlated `knows` passes → activity
/// (forums, posts, comments, likes) → (serialisation is the caller's
/// choice, see [`serializer`]).
pub fn generate(config: &GeneratorConfig) -> RawGraph {
    let world = dictionaries::StaticWorld::build(config.seed);
    let mut graph =
        RawGraph { persons: person::generate_persons(config, &world), ..RawGraph::default() };
    graph.knows = knows::generate_knows(config, &graph.persons);
    activity::generate_activity(config, &world, &mut graph);
    graph
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> GeneratorConfig {
        let mut c = GeneratorConfig::for_scale(ScaleFactor::by_name("0.001").unwrap());
        c.persons = 60;
        c
    }

    #[test]
    fn generation_is_deterministic() {
        let c = tiny_config();
        let g1 = generate(&c);
        let g2 = generate(&c);
        assert_eq!(g1.persons.len(), g2.persons.len());
        assert_eq!(g1.knows.len(), g2.knows.len());
        assert_eq!(g1.messages.len(), g2.messages.len());
        assert_eq!(g1.likes.len(), g2.likes.len());
        for (a, b) in g1.persons.iter().zip(&g2.persons) {
            assert_eq!(a.first_name, b.first_name);
            assert_eq!(a.creation_date, b.creation_date);
        }
        for (a, b) in g1.messages.iter().zip(&g2.messages) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.creation_date, b.creation_date);
            assert_eq!(a.content, b.content);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let c1 = tiny_config();
        let c2 = tiny_config().with_seed(999);
        let g1 = generate(&c1);
        let g2 = generate(&c2);
        let names1: Vec<_> = g1.persons.iter().map(|p| &p.first_name).collect();
        let names2: Vec<_> = g2.persons.iter().map(|p| &p.first_name).collect();
        assert_ne!(names1, names2);
    }

    #[test]
    fn stream_cut_is_90_percent() {
        let c = GeneratorConfig::for_scale(ScaleFactor::by_name("0.1").unwrap());
        let cut = c.stream_cut();
        let total = (c.end.0 - c.start.0) as f64;
        let frac = (cut.date().0 - c.start.0) as f64 / total;
        assert!((frac - 0.9).abs() < 0.01, "cut fraction {frac}");
    }

    #[test]
    fn temporal_integrity() {
        // Every record's timestamp must dominate its dependencies,
        // otherwise the bulk/stream split would dangle references.
        let g = generate(&tiny_config());
        use std::collections::HashMap;
        let person_created: HashMap<_, _> =
            g.persons.iter().map(|p| (p.id, p.creation_date)).collect();
        let msg: HashMap<_, _> = g.messages.iter().map(|m| (m.id, m)).collect();
        let forum_created: HashMap<_, _> =
            g.forums.iter().map(|f| (f.id, f.creation_date)).collect();
        for k in &g.knows {
            assert!(k.creation_date >= person_created[&k.a]);
            assert!(k.creation_date >= person_created[&k.b]);
        }
        for f in &g.forums {
            assert!(f.creation_date >= person_created[&f.moderator]);
        }
        for m in &g.memberships {
            assert!(m.join_date >= forum_created[&m.forum]);
            assert!(m.join_date >= person_created[&m.person]);
        }
        for m in &g.messages {
            assert!(m.creation_date >= person_created[&m.creator]);
            if let Some(parent) = m.reply_of {
                assert!(m.creation_date >= msg[&parent].creation_date);
            }
            if let Some(forum) = m.forum {
                assert!(m.creation_date >= forum_created[&forum]);
            }
        }
        for l in &g.likes {
            assert!(l.creation_date >= msg[&l.message].creation_date);
            assert!(l.creation_date >= person_created[&l.person]);
        }
    }
}
