//! Adversarial workload scenarios.
//!
//! The base [`WorkloadDriver`] reproduces the paper's steady-state mix:
//! Zipf-skewed keywords, clustered locations, a stable live-query population.
//! Static partitioning looks fine under that mix — the regimes where it
//! collapses (and where the dynamic adjustment controller has to earn its
//! keep) are the skewed, non-stationary ones described in the adaptive
//! processing and sliding-window pub/sub literature. This module overlays
//! four such regimes on the base stream, each a named [`Scenario`] selectable
//! as `--scenario <name>` on the figure binaries:
//!
//! * **flash-crowd** — periodic term spikes: during the second half of every
//!   window a small set of "trending" terms is stamped onto every object,
//!   spiking the document frequency of a few keywords (and the load of
//!   whichever worker owns them under text partitioning);
//! * **hotspot** — a moving spatial hotspot: most objects are relocated into
//!   a tight Gaussian around a center that drifts across the bounding box,
//!   so no static spatial split stays balanced;
//! * **churn-storm** — mass subscribe/unsubscribe: every window opens with a
//!   burst of query insertions and later unsubscribes exactly those queries,
//!   stressing index maintenance (slab churn, unposting deleted queries)
//!   rather than matching;
//! * **diurnal** — a sinusoidal load curve: a time-varying fraction of
//!   objects is "awake", concentrated near fixed busy centers and tagged
//!   with frequent-head terms, emulating the day/night cycle of a tweet
//!   stream.
//!
//! [`ScenarioDriver`] wraps a [`WorkloadDriver`] and transforms its records
//! in place; everything stays deterministic (an own `ChaCha8Rng` plus a
//! record counter, no wall clock).

use crate::corpus::sample_normal;
use crate::driver::WorkloadDriver;
use ps2stream_geo::{Point, Rect};
use ps2stream_model::{QueryUpdate, SpatioTextualObject, StreamRecord, StsQuery, SubscriberId};
use ps2stream_text::TermId;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

/// Records per flash-crowd window; the spike covers the second half.
const FLASH_WINDOW: u64 = 4_000;
/// Number of trending terms stamped onto objects during a flash-crowd spike.
const FLASH_TRENDING_TERMS: usize = 4;
/// Fraction of objects relocated into the moving hotspot.
const HOTSPOT_FRACTION: f64 = 0.8;
/// Records per churn-storm window.
const STORM_WINDOW: u64 = 3_000;
/// Queries subscribed (and later unsubscribed) per churn-storm window.
const STORM_BURST: u64 = 150;
/// Records per diurnal day/night cycle.
const DIURNAL_PERIOD: u64 = 8_000;
/// Number of fixed busy centers of the diurnal scenario.
const DIURNAL_CENTERS: usize = 3;
/// Subscriber-id offset of scenario-minted queries, far above anything the
/// base driver assigns (it numbers subscribers by insertion count).
const SCENARIO_SUBSCRIBER_BASE: u64 = 1 << 40;

/// A named adversarial workload scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Periodic trending-term spikes ("flash-crowd").
    FlashCrowd,
    /// A moving spatial hotspot ("hotspot").
    Hotspot,
    /// Mass subscribe/unsubscribe bursts ("churn-storm").
    ChurnStorm,
    /// Sinusoidal day/night load curve ("diurnal").
    Diurnal,
}

impl Scenario {
    /// All scenarios, in canonical order.
    pub fn all() -> [Scenario; 4] {
        [
            Scenario::FlashCrowd,
            Scenario::Hotspot,
            Scenario::ChurnStorm,
            Scenario::Diurnal,
        ]
    }

    /// The CLI name of the scenario (`--scenario <name>`).
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::FlashCrowd => "flash-crowd",
            Scenario::Hotspot => "hotspot",
            Scenario::ChurnStorm => "churn-storm",
            Scenario::Diurnal => "diurnal",
        }
    }

    /// Parses a CLI name; `None` for unknown names.
    pub fn parse(name: &str) -> Option<Scenario> {
        Scenario::all().into_iter().find(|s| s.name() == name)
    }
}

/// Wraps a [`WorkloadDriver`] and overlays one [`Scenario`] on its stream.
pub struct ScenarioDriver {
    base: WorkloadDriver,
    scenario: Scenario,
    rng: ChaCha8Rng,
    bounds: Rect,
    vocab: usize,
    /// Records emitted by this wrapper (the scenario's notion of time).
    pos: u64,
    /// Flash-crowd: the current window's trending terms.
    trending: Vec<TermId>,
    /// Hotspot: current center and per-record velocity.
    hotspot: Point,
    velocity: (f64, f64),
    /// Churn-storm: scenario-minted queries awaiting their unsubscribe burst.
    storm_live: VecDeque<StsQuery>,
    storm_subscribers: u64,
    /// Diurnal: fixed busy centers.
    busy_centers: Vec<Point>,
}

impl ScenarioDriver {
    /// Wraps `base` with the given scenario. The seed only drives the
    /// scenario's own randomness; the base driver keeps its stream.
    pub fn new(base: WorkloadDriver, scenario: Scenario, seed: u64) -> Self {
        let bounds = base.corpus().bounds();
        let vocab = base.corpus().spec().vocab_size;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let width = bounds.max.x - bounds.min.x;
        let height = bounds.max.y - bounds.min.y;
        let hotspot = Point::new(bounds.min.x + width * 0.25, bounds.min.y + height * 0.25);
        // the hotspot crosses the box over tens of thousands of records, so
        // it moves several grid cells over one figure run
        let velocity = (width / 40_000.0, height / 60_000.0);
        let busy_centers = (0..DIURNAL_CENTERS)
            .map(|_| {
                Point::new(
                    rng.gen_range(bounds.min.x..bounds.max.x),
                    rng.gen_range(bounds.min.y..bounds.max.y),
                )
            })
            .collect();
        Self {
            base,
            scenario,
            rng,
            bounds,
            vocab,
            pos: 0,
            trending: Vec::new(),
            hotspot,
            velocity,
            storm_live: VecDeque::new(),
            storm_subscribers: 0,
            busy_centers,
        }
    }

    /// The scenario being overlaid.
    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// The wrapped base driver.
    pub fn base(&self) -> &WorkloadDriver {
        &self.base
    }

    /// The diurnal scenario's fixed busy centers (exposed for tests).
    pub fn busy_centers(&self) -> &[Point] {
        &self.busy_centers
    }

    fn clamp_point(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.bounds.min.x, self.bounds.max.x),
            p.y.clamp(self.bounds.min.y, self.bounds.max.y),
        )
    }

    /// Stamps extra terms onto an object, preserving the sorted/deduplicated
    /// term-list invariant.
    fn overlay_terms(object: &mut SpatioTextualObject, extra: &[TermId]) {
        object.terms.extend_from_slice(extra);
        object.terms.sort_unstable();
        object.terms.dedup();
    }

    fn next_flash_crowd(&mut self, pos: u64) -> Option<StreamRecord> {
        if pos.is_multiple_of(FLASH_WINDOW) {
            // a fresh set of trending terms per window, drawn from the
            // frequent head so they collide with existing hot posting lists
            let head = (self.vocab / 50).max(FLASH_TRENDING_TERMS);
            self.trending.clear();
            while self.trending.len() < FLASH_TRENDING_TERMS {
                let t = TermId(self.rng.gen_range(0..head) as u32);
                if !self.trending.contains(&t) {
                    self.trending.push(t);
                }
            }
        }
        let mut record = self.base.next()?;
        if pos % FLASH_WINDOW >= FLASH_WINDOW / 2 {
            if let StreamRecord::Object(o) = &mut record {
                let trending = std::mem::take(&mut self.trending);
                Self::overlay_terms(o, &trending);
                self.trending = trending;
            }
        }
        Some(record)
    }

    fn next_hotspot(&mut self) -> Option<StreamRecord> {
        // advance the center, bouncing off the bounding box
        let mut x = self.hotspot.x + self.velocity.0;
        let mut y = self.hotspot.y + self.velocity.1;
        if x <= self.bounds.min.x || x >= self.bounds.max.x {
            self.velocity.0 = -self.velocity.0;
            x = x.clamp(self.bounds.min.x, self.bounds.max.x);
        }
        if y <= self.bounds.min.y || y >= self.bounds.max.y {
            self.velocity.1 = -self.velocity.1;
            y = y.clamp(self.bounds.min.y, self.bounds.max.y);
        }
        self.hotspot = Point::new(x, y);

        let mut record = self.base.next()?;
        if let StreamRecord::Object(o) = &mut record {
            if self.rng.gen_bool(HOTSPOT_FRACTION) {
                let std = (self.bounds.max.x - self.bounds.min.x) * 0.01;
                let p = Point::new(
                    sample_normal(&mut self.rng, self.hotspot.x, std),
                    sample_normal(&mut self.rng, self.hotspot.y, std),
                );
                o.location = self.clamp_point(p);
            }
        }
        Some(record)
    }

    fn next_churn_storm(&mut self, pos: u64) -> Option<StreamRecord> {
        let w = pos % STORM_WINDOW;
        if w < STORM_BURST {
            // subscribe burst: mint fresh queries through the base driver's
            // generator (its monotonically increasing ids keep scenario
            // queries distinct from the base population)
            let sub = SubscriberId(SCENARIO_SUBSCRIBER_BASE + self.storm_subscribers);
            self.storm_subscribers += 1;
            let query = self.base.query_generator_mut().next_query(sub);
            self.storm_live.push_back(query.clone());
            return Some(StreamRecord::Update(QueryUpdate::Insert(query)));
        }
        if (STORM_WINDOW / 2..STORM_WINDOW / 2 + STORM_BURST).contains(&w) {
            // unsubscribe burst: exactly the queries this scenario minted
            if let Some(query) = self.storm_live.pop_front() {
                return Some(StreamRecord::Update(QueryUpdate::Delete(query)));
            }
        }
        self.base.next()
    }

    fn next_diurnal(&mut self, pos: u64) -> Option<StreamRecord> {
        // "daytime fraction": 0 at the cycle boundaries, 1 mid-cycle
        let phase = pos as f64 / DIURNAL_PERIOD as f64 * std::f64::consts::TAU;
        let awake = (0.5 * (1.0 - phase.cos())).clamp(0.0, 1.0);
        let mut record = self.base.next()?;
        if let StreamRecord::Object(o) = &mut record {
            if self.rng.gen_bool(awake) {
                // daytime objects concentrate near the busy centers and talk
                // about the frequent head of the vocabulary
                let center = self.busy_centers[self.rng.gen_range(0..self.busy_centers.len())];
                let std = (self.bounds.max.x - self.bounds.min.x) * 0.02;
                let p = Point::new(
                    sample_normal(&mut self.rng, center.x, std),
                    sample_normal(&mut self.rng, center.y, std),
                );
                o.location = self.clamp_point(p);
                let head = (self.vocab / 100).max(1);
                let t = TermId(self.rng.gen_range(0..head) as u32);
                Self::overlay_terms(o, &[t]);
            }
        }
        Some(record)
    }
}

impl Iterator for ScenarioDriver {
    type Item = StreamRecord;

    fn next(&mut self) -> Option<StreamRecord> {
        let pos = self.pos;
        self.pos += 1;
        match self.scenario {
            Scenario::FlashCrowd => self.next_flash_crowd(pos),
            Scenario::Hotspot => self.next_hotspot(),
            Scenario::ChurnStorm => self.next_churn_storm(pos),
            Scenario::Diurnal => self.next_diurnal(pos),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{CorpusGenerator, DatasetSpec};
    use crate::driver::DriverConfig;
    use crate::queries::{QueryClass, QueryGenerator, QueryGeneratorConfig};
    use ps2stream_text::TermStats;

    fn base_driver() -> WorkloadDriver {
        let mut corpus = CorpusGenerator::new(DatasetSpec::tiny(), 1);
        let sample = corpus.generate(500);
        let queries = QueryGenerator::from_corpus(
            &corpus,
            &sample,
            QueryGeneratorConfig::new(QueryClass::Q1),
            7,
        );
        WorkloadDriver::new(DriverConfig::with_mu(100), corpus, queries, 13)
    }

    fn scenario_driver(s: Scenario) -> ScenarioDriver {
        ScenarioDriver::new(base_driver(), s, 99)
    }

    fn max_term_share(records: &[StreamRecord]) -> f64 {
        let mut stats = TermStats::new();
        for r in records {
            if let StreamRecord::Object(o) = r {
                stats.observe(&o.terms);
            }
        }
        let top = stats.terms_by_frequency()[0].1;
        top as f64 / stats.num_docs() as f64
    }

    #[test]
    fn names_round_trip_and_unknown_is_rejected() {
        for s in Scenario::all() {
            assert_eq!(Scenario::parse(s.name()), Some(s));
        }
        assert_eq!(Scenario::parse("steady-state"), None);
        assert_eq!(Scenario::parse(""), None);
    }

    #[test]
    fn scenarios_are_deterministic() {
        for s in Scenario::all() {
            let a: Vec<StreamRecord> = scenario_driver(s).take(2_000).collect();
            let b: Vec<StreamRecord> = scenario_driver(s).take(2_000).collect();
            assert_eq!(a, b, "scenario {} not deterministic", s.name());
        }
    }

    #[test]
    fn scenario_objects_stay_in_bounds() {
        let bounds = DatasetSpec::tiny().bounds;
        for s in Scenario::all() {
            for r in scenario_driver(s).take(3_000) {
                if let StreamRecord::Object(o) = r {
                    assert!(
                        bounds.contains_point(&o.location),
                        "scenario {} emitted {:?} outside {:?}",
                        s.name(),
                        o.location,
                        bounds
                    );
                    assert!(o.terms.windows(2).all(|w| w[0] < w[1]), "terms not sorted");
                }
            }
        }
    }

    #[test]
    fn flash_crowd_spikes_term_frequencies() {
        let base: Vec<StreamRecord> = base_driver().take(FLASH_WINDOW as usize).collect();
        let crowd: Vec<StreamRecord> = scenario_driver(Scenario::FlashCrowd)
            .take(FLASH_WINDOW as usize)
            .collect();
        let base_share = max_term_share(&base);
        let crowd_share = max_term_share(&crowd);
        assert!(
            crowd_share > base_share * 1.5,
            "trending overlay should spike the head: base {base_share:.3}, crowd {crowd_share:.3}"
        );
    }

    #[test]
    fn hotspot_concentrates_objects_spatially() {
        let bounds = DatasetSpec::tiny().bounds;
        let grid = ps2stream_geo::UniformGrid::new(bounds, 8, 8);
        let occupancy = |records: &[StreamRecord]| -> f64 {
            let mut counts = vec![0u64; grid.num_cells()];
            let mut total = 0u64;
            for r in records {
                if let StreamRecord::Object(o) = r {
                    counts[grid.cell_index(grid.cell_of_clamped(&o.location))] += 1;
                    total += 1;
                }
            }
            *counts.iter().max().unwrap() as f64 / total as f64
        };
        let crowd: Vec<StreamRecord> = scenario_driver(Scenario::Hotspot).take(2_000).collect();
        assert!(
            occupancy(&crowd) > 0.4,
            "hotspot should pull most objects into one cell, got {:.3}",
            occupancy(&crowd)
        );
    }

    #[test]
    fn churn_storm_unsubscribes_exactly_the_minted_queries() {
        let records: Vec<StreamRecord> = scenario_driver(Scenario::ChurnStorm)
            .take(2 * STORM_WINDOW as usize)
            .collect();
        let mut storm_inserted = std::collections::BTreeSet::new();
        let mut storm_deleted = std::collections::BTreeSet::new();
        for r in &records {
            match r {
                StreamRecord::Update(QueryUpdate::Insert(q))
                    if q.subscriber.0 >= SCENARIO_SUBSCRIBER_BASE =>
                {
                    assert!(storm_inserted.insert(q.id), "duplicate storm insert");
                }
                StreamRecord::Update(QueryUpdate::Delete(q))
                    if q.subscriber.0 >= SCENARIO_SUBSCRIBER_BASE =>
                {
                    assert!(
                        storm_inserted.contains(&q.id),
                        "storm delete of a query never inserted"
                    );
                    assert!(storm_deleted.insert(q.id), "double storm delete");
                }
                _ => {}
            }
        }
        assert_eq!(storm_inserted.len(), 2 * STORM_BURST as usize);
        assert_eq!(
            storm_inserted, storm_deleted,
            "every storm query unsubscribed"
        );
    }

    #[test]
    fn churn_storm_query_ids_do_not_collide_with_base_inserts() {
        let records: Vec<StreamRecord> = scenario_driver(Scenario::ChurnStorm)
            .take(STORM_WINDOW as usize)
            .collect();
        let mut seen = std::collections::BTreeSet::new();
        for r in &records {
            if let StreamRecord::Update(QueryUpdate::Insert(q)) = r {
                assert!(seen.insert(q.id), "query id {:?} inserted twice", q.id);
            }
        }
    }

    #[test]
    fn diurnal_load_varies_over_the_cycle() {
        let driver = scenario_driver(Scenario::Diurnal);
        let centers = driver.busy_centers().to_vec();
        let records: Vec<StreamRecord> = driver.take(DIURNAL_PERIOD as usize).collect();
        let bounds = DatasetSpec::tiny().bounds;
        let radius = (bounds.max.x - bounds.min.x) * 0.1;
        let chunk = records.len() / 8;
        let mut fractions = Vec::new();
        for part in records.chunks(chunk) {
            let (mut near, mut total) = (0u64, 0u64);
            for r in part {
                if let StreamRecord::Object(o) = r {
                    total += 1;
                    if centers.iter().any(|c| c.distance(&o.location) < radius) {
                        near += 1;
                    }
                }
            }
            fractions.push(near as f64 / total as f64);
        }
        let max = fractions.iter().cloned().fold(0.0, f64::max);
        let min = fractions.iter().cloned().fold(1.0, f64::min);
        assert!(
            max > min + 0.3,
            "diurnal busy fraction should swing over the cycle: {fractions:?}"
        );
    }
}
