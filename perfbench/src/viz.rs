//! `viz`: the paper's own path. One request draws one query in all 11
//! formalisms × {SVG, ASCII} through `QueryVisualizer::visualize`, with a
//! fresh visualizer per drawing as `relviz show`/`svg` uses.

use std::collections::BTreeMap;

use relviz::core::suite::SUITE;
use relviz::core::{Backend, QueryVisualizer, VisFormalism};
use relviz::diagrams::capability::{try_build, Capability, Formalism};
use relviz::diagrams::{
    dataplay, dfql, qbd, qbe, queryvis, reldiag, sieuferd, sqlvis, stringdiag, tabletalk,
    visualsql, DiagError,
};
use relviz::model::catalog::sailors_sample;
use relviz::model::Database;
use relviz::render::Scene;

use crate::check::digest;
use crate::rng::SplitMix;
use crate::trace::Tracer;
use crate::Workload;

/// Seeded queries of the suite's shape beside the 8 suite queries: extra
/// joins and deeper `NOT EXISTS` nests. Their structure is fixed; the seed
/// draws their constants, so a request's cost does not depend on it.
pub const SEEDED: usize = 5;

const BACKENDS: [Backend; 2] = [Backend::Svg, Backend::Ascii];

/// The golden files `tests/golden.rs` renders through
/// `QueryVisualizer::visualize` on the sample database, as (formalism,
/// extension); the goldens of other stems come from other entry points.
const PIPELINE_GOLDENS: [(&str, &str); 4] = [
    ("reldiag", "txt"),
    ("queryvis", "txt"),
    ("reldiag", "svg"),
    ("dfql", "svg"),
];

/// A formalism's CLI name (`--formalism`), which is also its golden-file
/// stem; its capability-probe twin; and the span name of its diagram
/// build.
fn names(f: VisFormalism) -> (&'static str, Formalism, &'static str) {
    match f {
        VisFormalism::QueryVis => ("queryvis", Formalism::QueryVis, "diagrams.build.queryvis"),
        VisFormalism::RelationalDiagrams => (
            "reldiag",
            Formalism::RelationalDiagrams,
            "diagrams.build.reldiag",
        ),
        VisFormalism::Dfql => ("dfql", Formalism::Dfql, "diagrams.build.dfql"),
        VisFormalism::Qbe => ("qbe", Formalism::Qbe, "diagrams.build.qbe"),
        VisFormalism::StringDiagrams => (
            "strings",
            Formalism::StringDiagrams,
            "diagrams.build.strings",
        ),
        VisFormalism::VisualSql => (
            "visualsql",
            Formalism::VisualSql,
            "diagrams.build.visualsql",
        ),
        VisFormalism::SqlVis => ("sqlvis", Formalism::SqlVis, "diagrams.build.sqlvis"),
        VisFormalism::TableTalk => (
            "tabletalk",
            Formalism::TableTalk,
            "diagrams.build.tabletalk",
        ),
        VisFormalism::DataPlay => ("dataplay", Formalism::DataPlay, "diagrams.build.dataplay"),
        VisFormalism::Sieuferd => ("sieuferd", Formalism::Sieuferd, "diagrams.build.sieuferd"),
        VisFormalism::Qbd => ("qbd", Formalism::Qbd, "diagrams.build.qbd"),
    }
}

/// The seeded queries.
fn seeded_queries(seed: u64) -> Vec<(String, String)> {
    const COLORS: [&str; 5] = ["red", "green", "blue", "white", "yellow"];
    let mut r = SplitMix::new(seed, 0);
    let (c1, c2, c3) = (r.pick(&COLORS), r.pick(&COLORS), r.pick(&COLORS));
    let (r1, r2) = (1 + r.below(9), 1 + r.below(9));
    let bid = 101 + r.below(4);
    let age = 20 + r.below(40);
    let q = vec![
        (
            "J2",
            format!(
                "SELECT DISTINCT S.sname FROM Sailor S, Reserves R1, Boat B1, Reserves R2, Boat B2 \
                 WHERE S.sid = R1.sid AND R1.bid = B1.bid AND B1.color = '{c1}' \
                 AND S.sid = R2.sid AND R2.bid = B2.bid AND B2.color = '{c2}'"
            ),
        ),
        (
            "J3",
            format!(
                "SELECT DISTINCT S.sname FROM Sailor S, Reserves R1, Boat B1, Reserves R2, Boat B2, \
                 Reserves R3 \
                 WHERE S.sid = R1.sid AND R1.bid = B1.bid AND B1.color = '{c1}' \
                 AND S.sid = R2.sid AND R2.bid = B2.bid AND B2.color = '{c2}' \
                 AND S.sid = R3.sid AND R3.bid = {bid} AND S.rating > {r1}"
            ),
        ),
        (
            "N3",
            format!(
                "SELECT S.sname FROM Sailor S WHERE S.rating > {r1} AND NOT EXISTS \
                 (SELECT * FROM Boat B WHERE B.color = '{c1}' AND NOT EXISTS \
                 (SELECT * FROM Reserves R WHERE R.sid = S.sid AND R.bid = B.bid AND NOT EXISTS \
                 (SELECT * FROM Sailor S2 WHERE S2.sid = R.sid AND S2.rating > {r2})))"
            ),
        ),
        (
            "NX",
            format!(
                "SELECT S.sname FROM Sailor S WHERE S.age > {age} AND EXISTS \
                 (SELECT * FROM Reserves R WHERE R.sid = S.sid AND R.bid = {bid}) AND NOT EXISTS \
                 (SELECT * FROM Reserves R2, Boat B WHERE R2.sid = S.sid AND R2.bid = B.bid \
                 AND B.color = '{c2}' AND NOT EXISTS \
                 (SELECT * FROM Sailor S2 WHERE S2.sid = R2.sid AND S2.rating > {r2}))"
            ),
        ),
        (
            "U2",
            format!(
                "SELECT S.sname FROM Sailor S, Reserves R, Boat B \
                 WHERE S.sid = R.sid AND R.bid = B.bid AND B.color = '{c1}' AND S.rating > {r1} \
                 UNION \
                 SELECT S.sname FROM Sailor S, Reserves R, Boat B \
                 WHERE S.sid = R.sid AND R.bid = B.bid AND B.color = '{c3}' AND S.age > {age}"
            ),
        ),
    ];
    q.into_iter().map(|(n, s)| (n.to_string(), s)).collect()
}

/// One drawing's outcome: the rendering, or the error's text.
type Drawing = Result<String, String>;

pub struct Viz {
    db: Database,
    /// (class name, SQL).
    queries: Vec<(String, String)>,
    /// Each class's first answer, kept whole for the checks in
    /// [`Workload::verify`]; later answers must match its digest.
    first: Vec<Option<Vec<Drawing>>>,
    digests: Vec<Vec<u64>>,
    traced_requests: u64,
    rejected: u64,
    items: u64,
    svg_bytes: u64,
    ascii_bytes: u64,
}

fn answer_digest(answer: &[Drawing]) -> u64 {
    let mut all = String::new();
    for d in answer {
        match d {
            Ok(s) => all.push_str(s),
            // Only the fact of a rejection is compared: the traced path
            // words some errors differently.
            Err(_) => all.push_str("rejected"),
        }
        all.push('\u{1}');
    }
    digest(&all)
}

impl Viz {
    /// `QueryVisualizer::visualize`, one layer call at a time.
    fn visualize_traced(
        &mut self,
        f: VisFormalism,
        b: Backend,
        sql: &str,
        tr: &mut Tracer,
    ) -> Drawing {
        let db = &self.db;
        let drawn = tr.span("core.visualize", |tr| {
            let parsed = tr
                .span("sql.parse", |_| relviz::sql::parse_query(sql))
                .map_err(|e| e.to_string())?;
            let canonical = tr.span("sql.print", |_| relviz::sql::print_query(&parsed));
            let trc = tr
                .span("rc.from_sql", |_| {
                    relviz::rc::from_sql::sql_to_trc(&parsed, db)
                })
                .map_err(|e| DiagError::from(e).to_string())?;
            let scene = tr
                .span(names(f).2, |tr| build_scene(tr, f, &canonical, &trc, db))
                .map_err(|e| e.to_string())?;
            let rendering = match b {
                Backend::Svg => tr.span("render.svg", |_| relviz::render::svg::to_svg(&scene)),
                Backend::Ascii => {
                    tr.span("render.ascii", |_| relviz::render::ascii::to_ascii(&scene))
                }
            };
            std::hint::black_box(tr.span("rc.print", |_| trc.to_string()));
            Ok::<_, String>((rendering, scene.items.len()))
        });
        match drawn {
            Ok((rendering, items)) => {
                self.items += items as u64;
                match b {
                    Backend::Svg => self.svg_bytes += rendering.len() as u64,
                    Backend::Ascii => self.ascii_bytes += rendering.len() as u64,
                }
                Ok(rendering)
            }
            Err(e) => {
                self.rejected += 1;
                Err(e)
            }
        }
    }
}

/// The pipeline's `build_scene`, with the translations it calls as
/// child spans of the diagram build.
fn build_scene(
    tr: &mut Tracer,
    f: VisFormalism,
    sql: &str,
    trc: &relviz::rc::TrcQuery,
    db: &Database,
) -> Result<Scene, DiagError> {
    let to_ra = |tr: &mut Tracer| tr.span("rc.to_ra", |_| relviz::rc::to_ra::trc_to_ra(trc, db));
    Ok(match f {
        VisFormalism::QueryVis => queryvis::QueryVisDiagram::from_trc(trc, db)?.scene(),
        VisFormalism::RelationalDiagrams => reldiag::RelationalDiagram::from_trc(trc, db)?.scene(),
        VisFormalism::Dfql => {
            let ra = to_ra(tr)?;
            let ra = tr.span("ra.rewrite", |_| relviz::ra::rewrite::optimize(&ra));
            dfql::DfqlDiagram::from_ra(&ra)?.scene()
        }
        VisFormalism::Qbe => {
            let ra = to_ra(tr)?;
            let prog = tr.span("datalog.translate", |_| {
                relviz::datalog::translate::ra_to_datalog(&ra, db)
            })?;
            qbe::QbeProgram::from_datalog(&prog, db)?.scene()
        }
        VisFormalism::StringDiagrams => {
            let drc = tr.span("rc.to_drc", |_| relviz::rc::to_drc::trc_to_drc(trc, db))?;
            stringdiag::StringDiagram::from_drc(&drc)?.scene()
        }
        VisFormalism::VisualSql => visualsql::VisualSqlDiagram::from_sql(sql, db)?.scene(),
        VisFormalism::SqlVis => sqlvis::SqlVisDiagram::from_sql(sql, db)?.scene(),
        VisFormalism::TableTalk => tabletalk::TableTalkDiagram::from_sql(sql, db)?.scene(),
        VisFormalism::DataPlay => dataplay::DataPlayTree::from_trc(trc, db)?.scene(),
        VisFormalism::Sieuferd => sieuferd::SieuferdSheet::from_sql(sql, db)?.scene(),
        VisFormalism::Qbd => qbd::QbdQuery::from_sql(sql, &qbd::ErSchema::sailors(), db)?.scene(),
    })
}

impl Workload for Viz {
    /// (class name, SQL) of every query.
    type Inputs = Vec<(String, String)>;
    type Answer = Vec<Drawing>;

    fn inputs(seed: u64) -> Vec<(String, String)> {
        let mut queries: Vec<(String, String)> = SUITE
            .iter()
            .map(|q| (q.id.to_string(), q.sql.to_string()))
            .collect();
        queries.extend(seeded_queries(seed));
        queries
    }

    fn new(queries: Vec<(String, String)>, _traced: bool) -> Result<Self, String> {
        let n = queries.len();
        Ok(Viz {
            db: sailors_sample(),
            queries,
            first: vec![None; n],
            digests: vec![Vec::new(); n],
            traced_requests: 0,
            rejected: 0,
            items: 0,
            svg_bytes: 0,
            ascii_bytes: 0,
        })
    }

    fn warm_up(&mut self) -> Result<(), String> {
        for c in 0..self.queries.len() {
            self.run(c as u64)?;
        }
        Ok(())
    }

    fn classes(&self) -> Vec<String> {
        self.queries.iter().map(|(n, _)| n.clone()).collect()
    }

    fn class_of(&self, i: u64) -> usize {
        (i % self.queries.len() as u64) as usize
    }

    fn tail_percentile(&self) -> f64 {
        99.0
    }

    fn sizes(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("queries", self.queries.len()),
            ("suite_queries", SUITE.len()),
            ("seeded_queries", SEEDED),
            (
                "drawings_per_request",
                VisFormalism::ALL.len() * BACKENDS.len(),
            ),
            ("db_tuples", self.db.total_tuples()),
        ]
    }

    fn run(&mut self, i: u64) -> Result<Vec<Drawing>, String> {
        let sql = &self.queries[self.class_of(i)].1;
        let mut out = Vec::with_capacity(VisFormalism::ALL.len() * BACKENDS.len());
        for f in VisFormalism::ALL {
            for b in BACKENDS {
                let drawn = QueryVisualizer::new(f, b).visualize(sql, &self.db);
                out.push(
                    drawn
                        .map(|o| o.rendering.clone())
                        .map_err(|e| e.to_string()),
                );
            }
        }
        Ok(out)
    }

    fn run_traced(&mut self, i: u64, tr: &mut Tracer) -> Result<Vec<Drawing>, String> {
        let sql = self.queries[self.class_of(i)].1.clone();
        let out = tr.request(i, |tr| {
            let mut out = Vec::with_capacity(VisFormalism::ALL.len() * BACKENDS.len());
            for f in VisFormalism::ALL {
                for b in BACKENDS {
                    out.push(self.visualize_traced(f, b, &sql, tr));
                }
            }
            out
        });
        self.traced_requests += 1;
        Ok(out)
    }

    fn check(&mut self, i: u64, answer: Vec<Drawing>) -> Result<(), String> {
        let c = self.class_of(i);
        self.digests[c].push(answer_digest(&answer));
        if self.first[c].is_none() {
            self.first[c] = Some(answer);
        }
        Ok(())
    }

    fn reference_check(_seed: u64) -> Vec<String> {
        // Drawings have no reference evaluator; `verify` checks them
        // against the capability probe and the golden files.
        Vec::new()
    }

    fn verify(&mut self) -> Vec<String> {
        let goldens = crate::repo_root().join("tests/goldens");
        let mut bad = Vec::new();
        for (c, (name, sql)) in self.queries.iter().enumerate() {
            let Some(first) = &self.first[c] else {
                continue;
            };
            let expect = answer_digest(first);
            for _ in self.digests[c].iter().filter(|&&d| d != expect) {
                bad.push(format!("{name}: drawings differ between requests"));
            }
            let mut k = 0;
            for f in VisFormalism::ALL {
                let (short, probe, _) = names(f);
                let drawable = match try_build(probe, sql, &self.db) {
                    Ok(Capability::Drawable { .. } | Capability::DrawableVia { .. }) => true,
                    Ok(Capability::Unsupported { .. }) | Err(_) => false,
                };
                for b in BACKENDS {
                    let drawn = &first[k];
                    k += 1;
                    if drawn.is_ok() != drawable {
                        bad.push(format!(
                            "{name} in {short}: visualize {} but the capability probe says {}",
                            if drawn.is_ok() {
                                "drew it"
                            } else {
                                "rejected it"
                            },
                            if drawable { "drawable" } else { "unsupported" }
                        ));
                        continue;
                    }
                    let ext = if b == Backend::Svg { "svg" } else { "txt" };
                    if !PIPELINE_GOLDENS.contains(&(short, ext)) {
                        continue;
                    }
                    let golden = goldens.join(format!("{name}-{short}.{ext}"));
                    if let (Ok(want), Ok(got)) = (std::fs::read_to_string(&golden), drawn) {
                        if &want != got {
                            bad.push(format!(
                                "{name} in {short}: differs from {}",
                                golden.display()
                            ));
                        }
                    }
                }
            }
        }
        bad
    }

    fn layer_counts(&mut self) -> BTreeMap<&'static str, f64> {
        let per = |x: u64| x as f64 / self.traced_requests.max(1) as f64;
        BTreeMap::from([
            ("diagrams.rejected", per(self.rejected)),
            ("render.items", per(self.items)),
            ("render.svg_bytes", per(self.svg_bytes)),
            ("render.ascii_bytes", per(self.ascii_bytes)),
        ])
    }
}
