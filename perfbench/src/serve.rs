//! `serve_read` and `serve_write`: `relviz-wire-v1` query frames into
//! `Server::handle_line` with a warm plan cache, on generated sailors data;
//! `serve_write` also sends a seeded `insert` frame after every
//! [`INSERT_EVERY`] reads.

use std::collections::BTreeMap;
use std::sync::Arc;

use relviz::core::suite::by_id;
use relviz::exec::parallel::eval_fixpoint_parallel;
use relviz::exec::{
    eval_datalog_all_with, eval_datalog_analyzed_with, eval_datalog_with, eval_fixpoint,
    eval_trc_analyzed_with, eval_trc_with, execute, execute_parallel, magic_transform,
    plan_datalog_with, plan_trc_with, run_sql_analyzed_with, run_sql_with, stats_of, Engine,
    IndexedRelation, OptConfig, StatsReport,
};
use relviz::model::generate::{generate_sailors, GenConfig};
use relviz::model::text::parse_database;
use relviz::model::{Database, Relation};
use relviz::serve::{
    escape, Catalog, Json, Lang, PlanCache, PlanKey, Prepared, Server, ServerConfig,
};

use crate::check::digest;
use crate::rng::SplitMix;
use crate::trace::Tracer;
use crate::Workload;

/// Total tuples of the measured database (`GenConfig::scaled`): 2 500
/// sailors, 500 boats, 7 000 reservations. Large enough that per-request
/// base-data materialization dominates a read (3–7 ms each).
pub const N: usize = 10_000;
/// Total tuples of the database the reference evaluators check against.
pub const SMALL_N: usize = 300;
/// `serve_write` sends one insert after this many reads.
pub const INSERT_EVERY: u64 = 8;

const DB: &str = "default";

/// Answer digests by (generation counted from the load, read class).
type Answers = BTreeMap<(u64, usize), Vec<u64>>;

/// One read request class: a suite query in one language.
struct ReadClass {
    name: String,
    lang: Lang,
    text: &'static str,
    /// Base relations the plan scans (for the materialization probe).
    tables: &'static [&'static str],
    frame: String,
}

/// Q1–Q4 and Q6 in SQL, TRC and Datalog, Q8 in SQL and TRC: the suite
/// queries that stay linear (Q5, Q7 and Q8-as-Datalog are quadratic: at
/// this size they are 10 to 100 times slower than the rest).
fn read_classes() -> Vec<ReadClass> {
    const SRB: &[&str] = &["Sailor", "Reserves", "Boat"];
    let mut out = Vec::new();
    let picks: [(&str, &[&str], &[Lang]); 6] = [
        (
            "Q1",
            &["Sailor", "Reserves"],
            &[Lang::Sql, Lang::Trc, Lang::Datalog],
        ),
        ("Q2", SRB, &[Lang::Sql, Lang::Trc, Lang::Datalog]),
        ("Q3", SRB, &[Lang::Sql, Lang::Trc, Lang::Datalog]),
        ("Q4", SRB, &[Lang::Sql, Lang::Trc, Lang::Datalog]),
        ("Q6", SRB, &[Lang::Sql, Lang::Trc, Lang::Datalog]),
        ("Q8", &["Sailor"], &[Lang::Sql, Lang::Trc]),
    ];
    for (id, tables, langs) in picks {
        let q = by_id(id).expect("suite query");
        for &lang in langs {
            let (tag, text) = match lang {
                Lang::Sql => ("sql", q.sql),
                Lang::Trc => ("trc", q.trc),
                Lang::Datalog => ("datalog", q.datalog),
            };
            let frame = format!(
                "{{\"type\":\"query\",\"id\":{},\"lang\":\"{tag}\",\"query\":\"{}\"}}",
                out.len(),
                escape(text)
            );
            out.push(ReadClass {
                name: format!("{id}-{tag}"),
                lang,
                text,
                tables,
                frame,
            });
        }
    }
    out
}

/// The sailors database of `n` tuples for `seed`.
fn sailors(seed: u64, n: usize) -> Database {
    generate_sailors(&GenConfig {
        seed,
        ..GenConfig::scaled(n)
    })
}

/// The `j`-th insert of a run: one new sailor and two reservations of
/// existing boats, all drawn from `(seed, j)`.
fn insert_text(seed: u64, j: u64) -> String {
    let mut rng = SplitMix::new(seed, j);
    let mut next = |m: u64| rng.below(m);
    const NAMES: [&str; 6] = ["ada", "brutus", "cora", "dustin", "ezra", "zorba"];
    let boats = GenConfig::scaled(N).boats as u64;
    let sid = 1_000_000 + j;
    let name = NAMES[next(NAMES.len() as u64) as usize];
    let rating = 1 + next(10);
    let age = 16 + next(55);
    let (b1, b2) = (100 + next(boats), 100 + next(boats));
    let (m1, d1, m2, d2) = (1 + next(12), 1 + next(28), 1 + next(12), 1 + next(28));
    format!(
        "relation Sailor(sid:int, sname:str, rating:int, age:float)\n\
         {sid}, {name}, {rating}, {age}.5\n\
         relation Reserves(sid:int, bid:int, day:str)\n\
         {sid}, {b1}, {m1}/{d1}/98\n\
         {sid}, {b2}, {m2}/{d2}/98\n"
    )
}

fn insert_frame(seed: u64, j: u64) -> String {
    format!(
        "{{\"type\":\"insert\",\"id\":{},\"db\":\"{DB}\",\"text\":\"{}\"}}",
        1_000 + j,
        escape(&insert_text(seed, j))
    )
}

/// The answer of a read class on `db`, from the unoptimized plan: no
/// join reordering and no magic sets.
fn oracle(class: &ReadClass, db: &Database) -> Result<Relation, String> {
    let cfg = OptConfig::unoptimized();
    let e = Engine::Indexed;
    match class.lang {
        Lang::Sql => run_sql_with(e, class.text, db, cfg),
        Lang::Trc => eval_trc_with(e, &parse_trc(class.text)?, db, cfg),
        Lang::Datalog => eval_datalog_with(e, &parse_program(class.text)?, db, cfg),
    }
    .map_err(|e| format!("{}: oracle: {e}", class.name))
}

/// The optimized plan's `EXPLAIN ANALYZE` report, for the traced run's
/// worst estimate.
fn analyzed(class: &ReadClass, db: &Database) -> Result<StatsReport, String> {
    let (e, cfg) = (Engine::Indexed, OptConfig::optimized());
    match class.lang {
        Lang::Sql => run_sql_analyzed_with(e, class.text, db, cfg),
        Lang::Trc => eval_trc_analyzed_with(e, &parse_trc(class.text)?, db, cfg),
        Lang::Datalog => eval_datalog_analyzed_with(e, &parse_program(class.text)?, db, cfg),
    }
    .map(|(_, report)| report)
    .map_err(|e| format!("{}: analyzed: {e}", class.name))
}

/// Applies the `j`-th insert fragment of `seed` to `db`, as
/// `Catalog::insert` does.
fn apply_insert(db: &mut Database, seed: u64, j: u64) {
    let fragment = parse_database(&insert_text(seed, j)).expect("insert fragments parse");
    for name in fragment.names() {
        let mut rel = db
            .relation(name)
            .expect("inserts touch base relations")
            .clone();
        for t in fragment.relation(name).expect("listed").iter() {
            rel.insert(t.clone())
                .expect("fragment rows match the schema");
        }
        db.set(name.to_string(), rel);
    }
}

/// The same query on the reference evaluator of its language.
fn reference(class: &ReadClass, db: &Database) -> Result<Relation, String> {
    let e = Engine::Reference;
    let cfg = OptConfig::unoptimized();
    match class.lang {
        Lang::Sql => relviz::sql::eval::run_sql(class.text, db).map_err(|e| e.to_string()),
        Lang::Trc => eval_trc_with(e, &parse_trc(class.text)?, db, cfg).map_err(|e| e.to_string()),
        Lang::Datalog => {
            eval_datalog_with(e, &parse_program(class.text)?, db, cfg).map_err(|e| e.to_string())
        }
    }
    .map_err(|e| format!("{}: reference: {e}", class.name))
}

fn parse_trc(text: &str) -> Result<relviz::rc::TrcQuery, String> {
    relviz::rc::trc_parse::parse_trc(text).map_err(|e| e.to_string())
}

fn parse_program(text: &str) -> Result<relviz::datalog::Program, String> {
    relviz::datalog::parse::parse_program(text).map_err(|e| e.to_string())
}

/// The escaped `body` field of a `result` frame — exactly what the server
/// writes after `"body":"`.
fn body_of(frame: &str) -> Result<&str, String> {
    if !frame.starts_with("{\"type\":\"result\"") {
        return Err(format!("expected a result frame, got {}", clip(frame)));
    }
    let at = frame
        .find(",\"body\":\"")
        .ok_or("result frame has no body")?;
    frame[at + 9..]
        .strip_suffix("\"}")
        .ok_or_else(|| "result frame is cut short".to_string())
}

fn clip(s: &str) -> &str {
    &s[..s.char_indices().nth(160).map_or(s.len(), |(i, _)| i)]
}

fn answer_digest(rel: &Relation) -> u64 {
    digest(&escape(&format!("{rel}")))
}

/// The catalog and plan cache the traced request path uses: the
/// server's own types, driven call by call.
struct Mirror {
    catalog: Catalog,
    cache: PlanCache,
}

/// Both serve workloads; `WRITES` adds the inserts.
pub struct Serve<const WRITES: bool> {
    seed: u64,
    server: Server,
    mirror: Option<Mirror>,
    classes: Vec<ReadClass>,
    base: Arc<Database>,
    gen0: u64,
    /// (class, generation, answer digest) of every read.
    answers: Vec<(usize, u64, u64)>,
    /// Mean-per-traced-request counts.
    traced_requests: u64,
    materialized_rows: u64,
    purged: u64,
    traced_inserts: u64,
    warm_cache: (u64, u64),
}

pub type ServeRead = Serve<false>;
pub type ServeWrite = Serve<true>;

impl<const WRITES: bool> Serve<WRITES> {
    fn is_insert(i: u64) -> bool {
        WRITES && (i + 1).is_multiple_of(INSERT_EVERY + 1)
    }

    /// Inserts sent before request `i`.
    fn inserts_before(i: u64) -> u64 {
        if WRITES {
            i / (INSERT_EVERY + 1)
        } else {
            0
        }
    }

    fn read_class(&self, i: u64) -> usize {
        ((i - Self::inserts_before(i)) % self.classes.len() as u64) as usize
    }

    fn frame(&self, i: u64) -> String {
        if Self::is_insert(i) {
            insert_frame(self.seed, Self::inserts_before(i))
        } else {
            self.classes[self.read_class(i)].frame.clone()
        }
    }

    /// The server's `handle_query` for a plain query, one layer call at
    /// a time. Also returns the plan it ran and its answer, for the probe.
    fn traced_read(
        &mut self,
        line: &str,
        tr: &mut Tracer,
    ) -> Result<(String, Prepared, Relation), String> {
        let m = self.mirror.as_ref().ok_or("not built for tracing")?;
        let frame = tr.span("serve.wire_parse", |_| Json::parse(line))?;
        let (text, lang) = tr.span("serve.frame", |_| {
            let text = frame
                .get("query")
                .and_then(Json::as_str)
                .ok_or("no query")?
                .to_string();
            let lang = match frame.get("lang").and_then(Json::as_str) {
                Some("trc") => Lang::Trc,
                Some("datalog") => Lang::Datalog,
                _ => Lang::Sql,
            };
            Ok::<_, String>((text, lang))
        })?;
        let id = frame.get("id").and_then(Json::as_u64).unwrap_or(0);
        let snap = tr
            .span("serve.catalog_get", |_| m.catalog.get(DB))
            .ok_or("no database")?;
        let cfg = OptConfig::optimized();
        let (key, hit) = tr.span("serve.cache_get", |_| {
            let key = PlanKey::new(DB, snap.generation, lang, Engine::Indexed, cfg, &text);
            let hit = m.cache.get(&key);
            (key, hit)
        });
        let db = &*snap.db;
        let cached = hit.is_some();
        let prepared = match hit {
            Some(p) => p,
            None => {
                let p = prepare_traced(tr, lang, &text, db, cfg)?;
                tr.span("serve.cache_put", |_| m.cache.put(key, p.clone()));
                p
            }
        };
        let rel = execute_traced(tr, &prepared, db, cfg)?;
        let out = tr.span("serve.frame", |_| {
            format!(
                "{{\"type\":\"result\",\"id\":{id},\"db\":\"{}\",\"generation\":{},\"rows\":{},\
                 \"cached_plan\":{cached},\"body\":\"{}\"}}",
                escape(DB),
                snap.generation,
                rel.len(),
                escape(&format!("{rel}"))
            )
        });
        Ok((out, prepared, rel))
    }

    /// The server's `handle_insert`, one layer call at a time.
    fn traced_insert(&mut self, line: &str, tr: &mut Tracer) -> Result<String, String> {
        let m = self.mirror.as_ref().ok_or("not built for tracing")?;
        let frame = tr.span("serve.wire_parse", |_| Json::parse(line))?;
        let (db, text) = tr.span("serve.frame", |_| {
            let db = frame
                .get("db")
                .and_then(Json::as_str)
                .ok_or("no db")?
                .to_string();
            let text = frame
                .get("text")
                .and_then(Json::as_str)
                .ok_or("no text")?
                .to_string();
            Ok::<_, String>((db, text))
        })?;
        let id = frame.get("id").and_then(Json::as_u64).unwrap_or(0);
        let fragment = tr
            .span("model.parse", |_| parse_database(&text))
            .map_err(|e| e.to_string())?;
        let generation = tr.span("serve.catalog_insert", |_| m.catalog.insert(&db, &fragment))?;
        let purged = tr.span("serve.cache_purge", |_| m.cache.purge_db(&db));
        self.purged += purged as u64;
        self.traced_inserts += 1;
        Ok(tr.span("serve.frame", |_| {
            format!(
                "{{\"type\":\"ok\",\"id\":{id},\"op\":\"insert\",\"db\":\"{}\",\"generation\":{generation}}}",
                escape(&db)
            )
        }))
    }

    /// The probes that follow a traced read, outside its request span:
    /// what `execute` pays to turn the scanned base relations into
    /// batches, their sketches alone, and the read's plan run again on
    /// the parallel engine (`"engine":"parallel"`), whose answer must
    /// match the serial one.
    fn probe(
        &mut self,
        class: usize,
        prepared: &Prepared,
        serial: &Relation,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let m = self.mirror.as_ref().ok_or("not built for tracing")?;
        let snap = m.catalog.get(DB).ok_or("no database")?;
        let rels: Vec<&Relation> = self.classes[class]
            .tables
            .iter()
            .map(|t| snap.db.relation(t).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        tr.span("exec.materialize", |_| {
            for r in &rels {
                std::hint::black_box(IndexedRelation::from_relation(r));
            }
        });
        tr.span("opt.stats", |_| {
            for r in &rels {
                std::hint::black_box(stats_of(r));
            }
        });
        self.materialized_rows += rels.iter().map(|r| r.len() as u64).sum::<u64>();
        let db = &*snap.db;
        let threads = crate::context::nproc();
        let parallel = tr.span("exec.parallel_run", |_| match prepared {
            Prepared::Plan(plan) => execute_parallel(plan, db, threads).map_err(|e| e.to_string()),
            Prepared::Fixpoint {
                plan,
                query_pred,
                program,
            } => {
                let mut all =
                    eval_fixpoint_parallel(plan, db, threads).map_err(|e| e.to_string())?;
                match all.remove(query_pred) {
                    Some(rel) => Ok(rel),
                    None => eval_datalog_all_with(
                        Engine::Parallel(threads),
                        program,
                        db,
                        OptConfig::optimized(),
                    )
                    .map_err(|e| e.to_string())?
                    .remove(&program.query)
                    .ok_or_else(|| "query never derived".to_string()),
                }
            }
        })?;
        if !parallel.same_contents(serial) {
            return Err(format!(
                "{}: the parallel engine's answer differs from the serial one",
                self.classes[class].name
            ));
        }
        Ok(())
    }

    /// Checks the reads of the generations `gens` (counted from the
    /// load) against the oracle; one reason per wrong answer.
    fn check_generations(&self, answers: &Answers, gens: std::ops::Range<u64>) -> Vec<String> {
        let mut db: Database = (*self.base).clone();
        for j in 0..gens.start {
            apply_insert(&mut db, self.seed, j);
        }
        let (mut bad, end) = (Vec::new(), gens.end);
        for k in gens {
            for (c, class) in self.classes.iter().enumerate() {
                let Some(seen) = answers.get(&(k, c)) else {
                    continue;
                };
                let expected = match oracle(class, &db) {
                    Ok(rel) => answer_digest(&rel),
                    Err(e) => {
                        bad.extend(seen.iter().map(|_| e.clone()));
                        continue;
                    }
                };
                let g = self.gen0 + k;
                for _ in seen.iter().filter(|&&d| d != expected) {
                    bad.push(format!("{} at generation {g}: wrong answer", class.name));
                }
            }
            if k + 1 < end {
                apply_insert(&mut db, self.seed, k);
            }
        }
        bad
    }
}

/// `Server::prepare`, with a span around each layer call.
fn prepare_traced(
    tr: &mut Tracer,
    lang: Lang,
    text: &str,
    db: &Database,
    cfg: OptConfig,
) -> Result<Prepared, String> {
    let s = |e: relviz::exec::ExecError| e.to_string();
    match lang {
        Lang::Sql => {
            let trc = tr
                .span("rc.from_sql", |_| {
                    relviz::rc::from_sql::parse_sql_to_trc(text, db)
                })
                .map_err(|e| e.to_string())?;
            let plan = tr
                .span("exec.plan", |_| plan_trc_with(&trc, db, cfg))
                .map_err(s)?;
            Ok(Prepared::Plan(Arc::new(plan)))
        }
        Lang::Trc => {
            let q = tr.span("rc.trc_parse", |_| parse_trc(text))?;
            let plan = tr
                .span("exec.plan", |_| plan_trc_with(&q, db, cfg))
                .map_err(s)?;
            Ok(Prepared::Plan(Arc::new(plan)))
        }
        Lang::Datalog => {
            let prog = tr.span("datalog.parse", |_| parse_program(text))?;
            if cfg.magic {
                if let Some(t) = tr.span("opt.magic", |_| magic_transform(&prog)) {
                    if let Ok(plan) = tr.span("exec.plan", |_| plan_datalog_with(&t, db, cfg)) {
                        return Ok(Prepared::Fixpoint {
                            plan: Arc::new(plan),
                            query_pred: t.query.clone(),
                            program: Arc::new(prog),
                        });
                    }
                }
            }
            let plan = tr
                .span("exec.plan", |_| plan_datalog_with(&prog, db, cfg))
                .map_err(s)?;
            let query_pred = prog.query.clone();
            Ok(Prepared::Fixpoint {
                plan: Arc::new(plan),
                query_pred,
                program: Arc::new(prog),
            })
        }
    }
}

/// `Server::execute_prepared` on the serial engine, with a span around
/// the engine call.
fn execute_traced(
    tr: &mut Tracer,
    prepared: &Prepared,
    db: &Database,
    cfg: OptConfig,
) -> Result<Relation, String> {
    match prepared {
        Prepared::Plan(plan) => tr
            .span("exec.plan_run", |_| execute(plan, db))
            .map_err(|e| e.to_string()),
        Prepared::Fixpoint {
            plan,
            query_pred,
            program,
        } => {
            let mut all = tr
                .span("exec.fixpoint_run", |_| eval_fixpoint(plan, db))
                .map_err(|e| e.to_string())?;
            match all.remove(query_pred) {
                Some(rel) => Ok(rel),
                None => {
                    let mut all = tr
                        .span("exec.fixpoint_run", |_| {
                            eval_datalog_all_with(Engine::Indexed, program, db, cfg)
                        })
                        .map_err(|e| e.to_string())?;
                    all.remove(&program.query)
                        .ok_or_else(|| "query never derived".to_string())
                }
            }
        }
    }
}

impl<const WRITES: bool> Workload for Serve<WRITES> {
    /// The seed (for the insert fragments) and the generated database.
    type Inputs = (u64, Database);
    type Answer = Vec<String>;

    fn inputs(seed: u64) -> (u64, Database) {
        (seed, sailors(seed, N))
    }

    fn new((seed, db): (u64, Database), traced: bool) -> Result<Self, String> {
        let server = Server::new(ServerConfig {
            threads: crate::context::nproc(),
            default_opt: OptConfig::optimized(),
            cache_cap: PlanCache::DEFAULT_CAP,
        });
        let mirror = traced.then(|| {
            let m = Mirror {
                catalog: Catalog::new(),
                cache: PlanCache::new(PlanCache::DEFAULT_CAP),
            };
            m.catalog.load(DB, db.clone());
            m
        });
        let gen0 = server.catalog().load(DB, db);
        let base = server.catalog().get(DB).ok_or("load lost the database")?.db;
        Ok(Serve {
            seed,
            server,
            mirror,
            classes: read_classes(),
            base,
            gen0,
            answers: Vec::new(),
            traced_requests: 0,
            materialized_rows: 0,
            purged: 0,
            traced_inserts: 0,
            warm_cache: (0, 0),
        })
    }

    fn warm_up(&mut self) -> Result<(), String> {
        for c in 0..self.classes.len() {
            let responses = self.server.handle_line(&self.classes[c].frame);
            body_of(responses.first().ok_or("no response")?)?;
            if self.mirror.is_some() {
                let line = self.classes[c].frame.clone();
                self.traced_read(&line, &mut Tracer::default())?;
            }
        }
        let s = self.server.plan_cache().stats();
        self.warm_cache = (s.hits, s.misses);
        Ok(())
    }

    fn classes(&self) -> Vec<String> {
        let mut names: Vec<String> = self.classes.iter().map(|c| c.name.clone()).collect();
        if WRITES {
            names.push("insert".to_string());
        }
        names
    }

    fn class_of(&self, i: u64) -> usize {
        if Self::is_insert(i) {
            self.classes.len()
        } else {
            self.read_class(i)
        }
    }

    fn write_class(&self) -> Option<usize> {
        WRITES.then_some(self.classes.len())
    }

    fn tail_percentile(&self) -> f64 {
        99.0
    }

    fn sizes(&self) -> Vec<(&'static str, usize)> {
        let cfg = GenConfig::scaled(N);
        let mut s = vec![
            ("n", N),
            ("sailors", cfg.sailors),
            ("boats", cfg.boats),
            (
                "reserves",
                self.base.relation("Reserves").map_or(0, Relation::len),
            ),
            ("read_classes", self.classes.len()),
            ("reference_n", SMALL_N),
        ];
        if WRITES {
            s.push(("insert_every_reads", INSERT_EVERY as usize));
            s.push(("insert_rows", 3));
        }
        s
    }

    fn run(&mut self, i: u64) -> Result<Vec<String>, String> {
        let line = self.frame(i);
        Ok(self.server.handle_line(&line))
    }

    fn run_traced(&mut self, i: u64, tr: &mut Tracer) -> Result<Vec<String>, String> {
        let line = self.frame(i);
        let out = if Self::is_insert(i) {
            tr.request(i, |tr| self.traced_insert(&line, tr))?
        } else {
            let class = self.read_class(i);
            let (out, prepared, rel) = tr.request(i, |tr| self.traced_read(&line, tr))?;
            self.probe(class, &prepared, &rel, tr)?;
            out
        };
        self.traced_requests += 1;
        Ok(vec![out])
    }

    fn check(&mut self, i: u64, answer: Vec<String>) -> Result<(), String> {
        let [frame] = answer.as_slice() else {
            return Err(format!(
                "request {i}: expected one frame, got {}",
                answer.len()
            ));
        };
        let generation = self.gen0 + Self::inserts_before(i);
        if Self::is_insert(i) {
            let expect = format!("\"generation\":{}}}", generation + 1);
            if !frame.starts_with("{\"type\":\"ok\"") || !frame.ends_with(&expect) {
                return Err(format!("insert {i}: {}", clip(frame)));
            }
            return Ok(());
        }
        let d = digest(body_of(frame)?);
        self.answers.push((self.read_class(i), generation, d));
        Ok(())
    }

    fn reference_check(seed: u64) -> Vec<String> {
        let db = sailors(seed, SMALL_N);
        let server = Server::new(ServerConfig::default());
        server.catalog().load(DB, db.clone());
        let mut bad = Vec::new();
        for class in read_classes() {
            let verdict = (|| {
                let served = server.handle_line(&class.frame);
                let served = digest(body_of(served.first().ok_or("no response")?)?);
                let exact = oracle(&class, &db)?;
                let refd = reference(&class, &db)?;
                if served != answer_digest(&exact) {
                    return Err(format!(
                        "{}: served answer differs from the unoptimized plan",
                        class.name
                    ));
                }
                if !exact.same_contents(&refd) {
                    return Err(format!(
                        "{}: engine disagrees with the reference evaluator",
                        class.name
                    ));
                }
                Ok(())
            })();
            if let Err(e) = verdict {
                bad.push(e);
            }
        }
        bad
    }

    fn verify(&mut self) -> Vec<String> {
        // Every read is checked against the oracle on the database as it
        // stood at the read's generation; the generations are split into
        // one contiguous chunk per core.
        let mut answers: Answers = BTreeMap::new();
        for &(c, g, d) in &self.answers {
            answers.entry((g - self.gen0, c)).or_default().push(d);
        }
        let gens = answers.keys().map(|&(k, _)| k + 1).max().unwrap_or(0);
        let chunk = gens.div_ceil(crate::context::nproc() as u64).max(1);
        let this = &*self;
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..gens)
                .step_by(chunk as usize)
                .map(|first| {
                    let answers = &answers;
                    scope.spawn(move || {
                        this.check_generations(answers, first..gens.min(first + chunk))
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap_or_else(|_| vec!["verify panicked".into()]))
                .collect()
        })
    }

    fn layer_counts(&mut self) -> BTreeMap<&'static str, f64> {
        let s = self.server.plan_cache().stats();
        let (hits, misses) = (s.hits - self.warm_cache.0, s.misses - self.warm_cache.1);
        let per_req = |x: u64| x as f64 / self.traced_requests.max(1) as f64;
        // The worst estimate over every class's optimized plan, analyzed
        // once on the loaded database.
        let q_error = self
            .classes
            .iter()
            .filter_map(|class| analyzed(class, &self.base).ok())
            .fold(0f64, |worst, report| worst.max(report.max_q_error));
        BTreeMap::from([
            ("exec.materialized_rows", per_req(self.materialized_rows)),
            ("opt.max_q_error", q_error),
            (
                "serve.cache_hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            ),
            (
                "serve.cache_purged",
                self.purged as f64 / self.traced_inserts.max(1) as f64,
            ),
        ])
    }
}
