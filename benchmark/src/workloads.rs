//! The five workloads.  Each builds its inputs from the seed, works out
//! what every class must answer before anything is timed, and then serves
//! passes to the driver in `harness`.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::clock::Clock;
use crate::gen::{self, AuctionDoc, Facts, Rng, Zipf};
use crate::harness::{ClassInfo, DocInfo, Metrics, Recorder, Workload};
use crate::oracle::{self, DocKey, Expect, Query};
use crate::stats::{self, Pass};
use crate::sut::{self, Answer, Edit, Machine};
use crate::trace::{Request, Tracer};

/// Item counts of the document sizes the workloads use (sixteen nodes an
/// item, plus eight).
pub const ITEMS_110: usize = 7;
pub const ITEMS_330: usize = 20;
pub const ITEMS_1K: usize = 60;
pub const ITEMS_3K: usize = 190;
pub const ITEMS_9K5: usize = 595;
pub const ITEMS_96K: usize = 6000;

/// The three warm workloads: name, queries, and the item counts of their
/// small and large document (streams 0 and 1).
const WARM: [(&str, &[Query], [usize; 2]); 3] = [
    ("warm_core", &oracle::CORE, [ITEMS_9K5, ITEMS_96K]),
    ("warm_xpath", &oracle::XPATH, [ITEMS_1K, ITEMS_9K5]),
    ("warm_pwf", &oracle::PWF, [ITEMS_110, ITEMS_330]),
];

pub fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    if let Some(&(_, queries, sizes)) = WARM.iter().find(|w| w.0 == name) {
        return Ok(Box::new(Warm::new(seed, queries, sizes)?));
    }
    Ok(match name {
        "first_answer" => Box::new(FirstAnswer::new(seed)?),
        "serve_mixed" => Box::new(ServeMixed::new(seed)?),
        other => return Err(format!("no workload called {other}")),
    })
}

/// Every `(document, query)` pair whose node-set answer `--bless` freezes:
/// the static documents of the four single-threaded workloads.
pub fn frozen_pairs() -> Vec<(DocKey, &'static Query)> {
    let mut pairs = Vec::new();
    for (_, queries, sizes) in WARM {
        for (stream, items) in sizes.into_iter().enumerate() {
            pairs.extend(queries.iter().map(|q| ((stream as u64, items), q)));
        }
    }
    for stream in 0..FirstAnswer::POOL {
        let key = (FirstAnswer::STREAM_BASE + stream as u64, ITEMS_9K5);
        pairs.extend(oracle::first_answer_queries().map(|q| (key, q)));
    }
    pairs
}

/// What a class must answer, and the exact work one evaluation of it does.
struct Target {
    expect: Expect,
    /// Agreed hash of a node-set answer's bytes.
    hash: Option<u64>,
    machine: Machine,
    answer_bytes: usize,
    result_size: u64,
    evaluations: u64,
    table_entries: u64,
}

/// Checks `query` on the document across backends (see
/// [`oracle::reference`]) and keeps what the timed loop compares against.
fn target(
    seed: u64,
    key: DocKey,
    doc: &AuctionDoc,
    eager: &sut::Prepared,
    query: &Query,
) -> Result<Target, String> {
    let reference = oracle::reference(key, &doc.xml, &doc.facts, eager, query)?;
    let answer = &reference.answer;
    oracle::check_frozen(seed, key, query, answer)?;
    Ok(Target {
        expect: query.expect(&doc.facts),
        hash: answer.nodes.map(|_| oracle::fnv64(answer.text.as_bytes())),
        machine: reference.machine,
        answer_bytes: answer.text.len(),
        result_size: answer.nodes.map_or(1, |n| n.max(1) as u64),
        evaluations: reference.evaluations,
        table_entries: reference.table_entries,
    })
}

/// The exact-count per-layer metrics, summed over one pass of `targets`.
fn count_metrics<'a>(targets: impl Iterator<Item = &'a Target> + Clone, metrics: &mut Metrics) {
    let sum = |pick: fn(&Target) -> u64, on: &[Machine]| -> f64 {
        targets
            .clone()
            .filter(|t| on.contains(&t.machine))
            .map(pick)
            .sum::<u64>() as f64
    };
    metrics.insert(
        "core.exec.cvt.table_entries",
        sum(|t| t.table_entries, &[Machine::Cvt]),
    );
    metrics.insert(
        "core.exec.ss.evaluations",
        sum(|t| t.evaluations, &[Machine::Ss, Machine::Parallel]),
    );
    metrics.insert(
        "core.exec.evaluations_per_result",
        sum(|t| t.evaluations, &Machine::ALL) / sum(|t| t.result_size, &Machine::ALL),
    );
}

fn doc_info(doc: &AuctionDoc) -> DocInfo {
    DocInfo {
        nodes: doc.facts.node_count(),
        xml_bytes: doc.xml.len(),
    }
}

/// The pass that ends a set-up: fills caches, and refuses to go on if a
/// class answers wrongly.
fn warming_pass(workload: &mut dyn Workload) -> Result<(), String> {
    let mut warming = Recorder::new(workload.classes().len());
    workload.pass(&mut Tracer::new(workload.clock()), &mut warming);
    match warming.failed {
        0 => Ok(()),
        n => Err(format!("{n} classes answered wrongly in set-up")),
    }
}

fn parse_and_prepare(tracer: &mut Tracer, doc: u32, xml: &str) -> Result<sut::Prepared, String> {
    let parsed = tracer.setup("dom.parse", doc, || sut::parse(xml))?;
    Ok(tracer.setup("dom.prepare", doc, || sut::prepare(parsed)))
}

// ---- warm_core, warm_xpath, warm_pwf -------------------------------------

/// Steady state on prepared documents of two sizes: every request is a
/// plan-cache hit, a run on the machine the engine picks, and the
/// serialization of the answer.
struct Warm {
    seed: u64,
    queries: &'static [Query],
    sizes: [usize; 2],
    docs: Vec<DocInfo>,
    /// Per class, document-major.
    targets: Vec<Target>,
    state: Option<(sut::Cached, Vec<sut::Prepared>)>,
    cache_mark: (u64, u64),
}

impl Warm {
    fn new(seed: u64, queries: &'static [Query], sizes: [usize; 2]) -> Result<Self, String> {
        let (mut docs, mut targets) = (Vec::new(), Vec::new());
        for (stream, items) in sizes.into_iter().enumerate() {
            let doc = gen::auction_doc(seed, stream as u64, items);
            let eager = sut::prepare(sut::parse(&doc.xml)?);
            for query in queries {
                targets.push(target(seed, (stream as u64, items), &doc, &eager, query)?);
            }
            docs.push(doc_info(&doc));
        }
        Ok(Warm {
            seed,
            queries,
            sizes,
            docs,
            targets,
            state: None,
            cache_mark: (0, 0),
        })
    }
}

impl Workload for Warm {
    fn docs(&self) -> Vec<DocInfo> {
        self.docs.clone()
    }

    fn classes(&self) -> Vec<ClassInfo> {
        let per_doc = self.queries.len();
        self.targets
            .iter()
            .enumerate()
            .map(|(class, target)| {
                let (doc, query) = (class / per_doc, &self.queries[class % per_doc]);
                ClassInfo {
                    name: format!("{}@{}", query.id, self.docs[doc].nodes),
                    query: query.id,
                    doc,
                    answer_bytes: target.answer_bytes,
                }
            })
            .collect()
    }

    fn setup(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        self.state = None;
        let mut prepared = Vec::new();
        for (stream, items) in self.sizes.into_iter().enumerate() {
            let doc = gen::auction_doc(self.seed, stream as u64, items);
            prepared.push(parse_and_prepare(tracer, stream as u32, &doc.xml)?);
        }
        self.state = Some((sut::cached_engine(), prepared));
        warming_pass(self)
    }

    fn pass(&mut self, tracer: &mut Tracer, recorder: &mut Recorder) -> Pass {
        let (engine, prepared) = self.state.as_ref().expect("set-up ran");
        let mut seconds = 0.0;
        for (class, target) in self.targets.iter().enumerate() {
            let doc = &prepared[class / self.queries.len()];
            let query = &self.queries[class % self.queries.len()];
            let request = tracer.request(class as u32);
            let answer = tracer
                .child(&request, target.machine.span_name(), || {
                    sut::evaluate_cached(engine, doc, query.text)
                })
                .map(|value| {
                    tracer.child(&request, "dom.serialize", || {
                        sut::serialize_answer(&value, doc)
                    })
                });
            let latency = tracer.finish(request);
            let ok = answer.is_ok_and(|a| oracle::check(&target.expect, target.hash, &a));
            recorder.record(class as u32, latency, ok);
            seconds += latency.as_secs_f64();
        }
        Pass {
            ops: self.targets.len(),
            seconds,
        }
    }

    fn mark(&mut self) {
        let (engine, _) = self.state.as_ref().expect("set-up ran");
        self.cache_mark = sut::plan_cache_counts(engine);
    }

    fn finish(&mut self, _tracer: &mut Tracer, metrics: &mut Metrics) -> Result<(), String> {
        let (engine, _) = self.state.as_ref().expect("set-up ran");
        let (hits, misses) = sut::plan_cache_counts(engine);
        let (hits, misses) = (hits - self.cache_mark.0, misses - self.cache_mark.1);
        metrics.insert(
            "core.plan_cache.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        count_metrics(self.targets.iter(), metrics);
        Ok(())
    }
}

// ---- first_answer ---------------------------------------------------------

#[derive(Clone, Copy)]
enum Backend {
    Eager,
    Lazy,
    Snapshot,
}

const BACKENDS: [(Backend, &str); 3] = [
    (Backend::Eager, "eager"),
    (Backend::Lazy, "lazy"),
    (Backend::Snapshot, "snapshot"),
];

struct PoolDoc {
    xml: String,
    image: Vec<u8>,
}

/// Cold requests: bytes in, serialized answer out, nothing kept between
/// requests, through each backend in turn over a pool of documents that
/// together outgrow the L2 cache.
struct FirstAnswer {
    seed: u64,
    docs: Vec<DocInfo>,
    /// Per pool document, per query.
    targets: Vec<Vec<Target>>,
    pool: Vec<PoolDoc>,
    passes: usize,
    lower_us: Vec<f64>,
    materialized_share: Vec<f64>,
}

impl FirstAnswer {
    const POOL: usize = 8;
    /// Keeps the pool's documents apart from `warm_core`'s streams 0 and 1
    /// in the frozen-answer file.
    const STREAM_BASE: u64 = 100;

    fn new(seed: u64) -> Result<Self, String> {
        let (mut docs, mut targets) = (Vec::new(), Vec::new());
        for d in 0..Self::POOL {
            let key = (Self::STREAM_BASE + d as u64, ITEMS_9K5);
            let doc = gen::auction_doc(seed, key.0, key.1);
            let eager = sut::prepare(sut::parse(&doc.xml)?);
            targets.push(
                oracle::first_answer_queries()
                    .iter()
                    .map(|query| target(seed, key, &doc, &eager, query))
                    .collect::<Result<Vec<_>, _>>()?,
            );
            docs.push(doc_info(&doc));
        }
        Ok(FirstAnswer {
            seed,
            docs,
            targets,
            pool: Vec::new(),
            passes: 0,
            lower_us: Vec::new(),
            materialized_share: Vec::new(),
        })
    }

    /// One cold request and its latency.  The snapshot image is copied
    /// before the clock starts (a server receives its bytes already owned)
    /// and what the request built is freed after it stops (the answer is
    /// in hand by then).
    fn request(
        &mut self,
        tracer: &mut Tracer,
        class: u32,
        backend: Backend,
        doc: usize,
        query: &Query,
    ) -> (Duration, Result<Answer, String>) {
        let PoolDoc { xml, image } = &self.pool[doc];
        let image = matches!(backend, Backend::Snapshot).then(|| image.clone());
        let request = tracer.request(class);
        let r = &request;
        let run = || {
            let compile =
                |tracer: &mut Tracer| tracer.child(r, "core.compile", || sut::compile(query.text));
            let (plan, prepared, backing): (_, _, Box<dyn std::any::Any>) = match backend {
                Backend::Eager => {
                    let parsed = tracer.child(r, "dom.parse", || sut::parse(xml))?;
                    let prepared = tracer.child(r, "dom.prepare", || sut::prepare(parsed));
                    (compile(tracer)?, prepared, Box::new(()))
                }
                Backend::Lazy => {
                    let lazy =
                        tracer.child(r, "backends.lazy.tokenize", || sut::lazy_tokenize(xml))?;
                    let plan = compile(tracer)?;
                    let wave = tracer.child(r, "backends.lazy.materialize", || {
                        sut::lazy_materialize(&lazy, &plan)
                    })?;
                    self.materialized_share
                        .push(sut::node_count(&wave) as f64 / sut::lazy_total_nodes(&lazy) as f64);
                    (plan, wave, Box::new(lazy))
                }
                Backend::Snapshot => {
                    let image = image.expect("copied above");
                    let snapshot =
                        tracer.child(r, "backends.snapshot.open", || sut::snapshot_open(image))?;
                    let prepared = tracer.child(r, "backends.snapshot.decode", || {
                        sut::snapshot_decode(&snapshot)
                    })?;
                    (compile(tracer)?, prepared, Box::new(snapshot))
                }
            };
            self.lower_us.push(sut::lower_us(&plan));
            let machine = sut::machine_for(&plan, &prepared);
            let out = tracer.child(r, machine.span_name(), || sut::run(&plan, &prepared))?;
            let answer = tracer.child(r, "dom.serialize", || {
                sut::serialize_answer(&out.value, &prepared)
            });
            Ok::<_, String>((answer, (plan, prepared, backing, out)))
        };
        let built = run();
        let latency = tracer.finish(request);
        (latency, built.map(|(answer, _freed_off_the_clock)| answer))
    }
}

impl Workload for FirstAnswer {
    fn docs(&self) -> Vec<DocInfo> {
        self.docs.clone()
    }

    fn classes(&self) -> Vec<ClassInfo> {
        let queries = oracle::first_answer_queries();
        BACKENDS
            .iter()
            .flat_map(|(_, backend)| {
                queries.iter().enumerate().map(move |(q, query)| ClassInfo {
                    name: format!("{backend}.{}", query.id),
                    query: query.id,
                    doc: 0,
                    answer_bytes: self.targets[0][q].answer_bytes,
                })
            })
            .collect()
    }

    fn setup(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        self.pool.clear();
        for d in 0..Self::POOL {
            let xml = gen::auction_doc(self.seed, Self::STREAM_BASE + d as u64, ITEMS_9K5).xml;
            let image = sut::snapshot_image(&parse_and_prepare(tracer, d as u32, &xml)?);
            self.pool.push(PoolDoc { xml, image });
        }
        warming_pass(self)
    }

    fn pass(&mut self, tracer: &mut Tracer, recorder: &mut Recorder) -> Pass {
        let queries = oracle::first_answer_queries();
        let mut seconds = 0.0;
        let mut class = 0;
        for (backend, _) in BACKENDS {
            for (q, query) in queries.iter().enumerate() {
                // Every class meets every pool document, one pass after another.
                let doc = (self.passes + class as usize) % Self::POOL;
                let (latency, answer) = self.request(tracer, class, backend, doc, query);
                let target = &self.targets[doc][q];
                let ok = answer.is_ok_and(|a| oracle::check(&target.expect, target.hash, &a));
                recorder.record(class, latency, ok);
                seconds += latency.as_secs_f64();
                class += 1;
            }
        }
        self.passes += 1;
        Pass {
            ops: class as usize,
            seconds,
        }
    }

    fn mark(&mut self) {
        self.lower_us.clear();
        self.materialized_share.clear();
    }

    fn finish(&mut self, tracer: &mut Tracer, metrics: &mut Metrics) -> Result<(), String> {
        // `compile` parses for itself, so the parser alone is timed apart
        // from the requests.
        for query in oracle::first_answer_queries() {
            for _ in 0..25 {
                tracer.setup("syntax.parse", 0, || sut::parse_query_text(query.text))?;
            }
        }
        metrics.insert("core.lower.us", stats::median(&self.lower_us));
        metrics.insert(
            "backends.lazy.materialized_share",
            stats::median(&self.materialized_share),
        );
        let sizes: Vec<f64> = self
            .pool
            .iter()
            .map(|d| d.image.len() as f64 / d.xml.len() as f64)
            .collect();
        metrics.insert(
            "backends.snapshot.bytes_per_xml_byte",
            stats::geomean(&sizes),
        );
        // The plan cache is not on the cold path: its hit rate stays 0.
        count_metrics(self.targets[0].iter(), metrics);
        Ok(())
    }
}

// ---- serve_mixed ----------------------------------------------------------

const READ_CORE: u32 = 0;
const READ_XPATH: u32 = 1;
const WRITE_INSERT: u32 = 2;
const WRITE_REMOVE: u32 = 3;
const WRITE_SET_ATTR: u32 = 4;
const SERVE_CLASSES: [&str; 5] = [
    "read.core",
    "read.xpath",
    "write.insert",
    "write.remove",
    "write.set_attr",
];

struct InFlight {
    request: Request,
    ticket: sut::ReadTicket,
    doc: usize,
    query: &'static Query,
}

struct Serving {
    store: sut::Store,
    pool: sut::Pool,
    /// The facts of each document as the writes so far have left them.
    shadow: Vec<Facts>,
    schedule: Rng,
    ops: u64,
    window: VecDeque<InFlight>,
}

/// Reads beside writes through catalog, pool and live documents: the only
/// workload with more than one thread.
struct ServeMixed {
    seed: u64,
    names: Vec<String>,
    doc_info: DocInfo,
    zipf: Zipf,
    /// Zipf rank → document, so the hot documents spread over backends.
    by_rank: Vec<usize>,
    serving: Option<Serving>,
    counts_mark: sut::StoreCounts,
    writes: u64,
    killed: u64,
    renumbered: u64,
}

impl ServeMixed {
    const DOCS: usize = 96;
    const IN_FLIGHT: usize = 4;
    /// Ops per block, the unit `ops_per_s` takes its median over.
    const BLOCK: usize = 200;
    const WRITE_EVERY: u64 = 10;
    const STREAM_BASE: u64 = 1000;
    /// Reads compared one by one against the direct call, in a traced run.
    const PROBES: usize = 600;

    fn new(seed: u64) -> Result<Self, String> {
        let mut by_rank: Vec<usize> = (0..Self::DOCS).collect();
        Rng::fork(seed, Self::STREAM_BASE - 1).shuffle(&mut by_rank);
        Ok(ServeMixed {
            seed,
            names: (0..Self::DOCS).map(|d| format!("auction-{d:02}")).collect(),
            doc_info: doc_info(&gen::auction_doc(seed, Self::STREAM_BASE, ITEMS_3K)),
            zipf: Zipf::new(Self::DOCS),
            by_rank,
            serving: None,
            counts_mark: sut::StoreCounts::default(),
            writes: 0,
            killed: 0,
            renumbered: 0,
        })
    }

    fn queries() -> impl Iterator<Item = &'static Query> + Clone {
        oracle::CORE.iter().chain(&oracle::XPATH)
    }

    fn pick_query(rng: &mut Rng) -> &'static Query {
        Self::queries()
            .nth(rng.below(Self::queries().count()))
            .expect("in range")
    }

    fn read_class(query: &Query) -> u32 {
        if oracle::CORE.iter().any(|q| q.id == query.id) {
            READ_CORE
        } else {
            READ_XPATH
        }
    }

    fn shutdown(&mut self) -> Option<sut::PoolCounts> {
        self.serving.take().map(|s| sut::pool_shutdown(s.pool))
    }

    /// Waits for the oldest read, serializes and checks its answer.
    fn complete_oldest(&mut self, tracer: &mut Tracer, recorder: &mut Recorder) {
        let serving = self.serving.as_mut().expect("set-up ran");
        let Some(read) = serving.window.pop_front() else {
            return;
        };
        let (r, name) = (&read.request, &self.names[read.doc]);
        let answer = tracer
            .child(r, "serve.wait", || sut::wait_read(read.ticket))
            .and_then(|out| {
                let doc = tracer
                    .child(r, "catalog.resolve", || {
                        sut::store_document(&serving.store, name)
                    })
                    .ok_or("the document is gone")?;
                Ok(tracer.child(r, "dom.serialize", || {
                    sut::serialize_answer(&out.value, &doc)
                }))
            });
        let latency = tracer.finish(read.request);
        let expect = read.query.expect(&serving.shadow[read.doc]);
        let ok = answer.is_ok_and(|a| oracle::check(&expect, None, &a));
        recorder.record(read.request.class, latency, ok);
    }

    fn read(&mut self, tracer: &mut Tracer, recorder: &mut Recorder) {
        if self.serving.as_ref().expect("set-up ran").window.len() == Self::IN_FLIGHT {
            self.complete_oldest(tracer, recorder);
        }
        let serving = self.serving.as_mut().expect("set-up ran");
        let doc = self.by_rank[self.zipf.sample(&mut serving.schedule)];
        let query = Self::pick_query(&mut serving.schedule);
        let request = tracer.request(Self::read_class(query));
        let ticket = tracer.child(&request, "serve.submit", || {
            sut::submit_read(&serving.pool, &serving.store, &self.names[doc], query.text)
        });
        match ticket {
            Ok(ticket) => serving.window.push_back(InFlight {
                request,
                ticket,
                doc,
                query,
            }),
            Err(_) => {
                let latency = tracer.finish(request);
                recorder.record(request.class, latency, false);
            }
        }
    }

    /// A write waits for every read before it and is waited for itself, so
    /// each read's place among the writes is known to the shadow facts.
    fn write(&mut self, tracer: &mut Tracer, recorder: &mut Recorder, turn: u64) {
        while !self.serving.as_ref().expect("set-up ran").window.is_empty() {
            self.complete_oldest(tracer, recorder);
        }
        let serving = self.serving.as_mut().expect("set-up ran");
        let rng = &mut serving.schedule;
        let doc = self.by_rank[self.zipf.sample(rng)];
        let items = &mut serving.shadow[doc].items;
        let increase = 1.5 + 3.0 * rng.below(4) as f64;
        let from = rng.below(items.len());
        // The first item at or after a random one that has a bid to edit.
        let bidded = (0..items.len())
            .map(|k| (from + k) % items.len())
            .find(|&i| !items[i].bids.is_empty());
        let (class, edit) = match (turn % 3, bidded) {
            (1, Some(item)) => {
                let bid = rng.below(items[item].bids.len());
                (WRITE_REMOVE, Edit::RemoveBid { item, bid })
            }
            (2, Some(item)) => {
                let bid = rng.below(items[item].bids.len());
                (
                    WRITE_SET_ATTR,
                    Edit::SetIncrease {
                        item,
                        bid,
                        increase,
                    },
                )
            }
            _ => (
                WRITE_INSERT,
                Edit::InsertBid {
                    item: from,
                    increase,
                },
            ),
        };

        let request = tracer.request(class);
        let outcome = tracer
            .child(&request, "serve.submit", || {
                sut::submit_write(
                    &serving.pool,
                    &serving.store,
                    &self.names[doc],
                    edit.clone(),
                )
            })
            .and_then(|ticket| tracer.child(&request, "serve.wait", || sut::wait_write(ticket)));
        if let Ok((report, _)) = &outcome {
            tracer.child_at(&request, "live.edit", report.start, report.end);
        }
        let latency = tracer.finish(request);
        if let Ok((report, killed)) = &outcome {
            match edit {
                Edit::InsertBid { item, increase } => items[item].bids.push(increase),
                Edit::RemoveBid { item, bid } => drop(items[item].bids.remove(bid)),
                Edit::SetIncrease {
                    item,
                    bid,
                    increase,
                } => items[item].bids[bid] = increase,
            }
            self.writes += 1;
            self.killed += killed;
            self.renumbered += u64::from(report.renumbered);
        }
        recorder.record(class, latency, outcome.is_ok());
    }

    /// In a traced run, with the pool idle: each probed read once straight
    /// through the catalog (filed as an artifact hit or miss by the
    /// catalog's own counters), once through the pool, once more straight.
    /// The pool's overhead is the second against the third, both hits.
    fn probe(&mut self, tracer: &mut Tracer, metrics: &mut Metrics) -> Result<(), String> {
        let serving = self.serving.as_mut().expect("set-up ran");
        let mut rng = Rng::fork(self.seed, Self::STREAM_BASE - 2);
        let mut overhead_us = Vec::new();
        for _ in 0..Self::PROBES {
            let doc = rng.below(Self::DOCS);
            let name = &self.names[doc];
            let query = Self::pick_query(&mut rng);

            let misses = sut::store_counts(&serving.store).artifact_misses;
            let start = Instant::now();
            sut::store_evaluate(&serving.store, name, query.text)?;
            let end = Instant::now();
            let missed = sut::store_counts(&serving.store).artifact_misses > misses;
            let span = if missed {
                "catalog.evaluate_miss"
            } else {
                "catalog.evaluate_hit"
            };
            tracer.record(span, doc as u32, start, end);

            let start = Instant::now();
            let out = sut::wait_read(sut::submit_read(
                &serving.pool,
                &serving.store,
                name,
                query.text,
            )?)?;
            std::hint::black_box(sut::store_answer(&serving.store, name, &out)?);
            let pooled = start.elapsed();
            let start = Instant::now();
            let out = sut::store_evaluate(&serving.store, name, query.text)?;
            std::hint::black_box(sut::store_answer(&serving.store, name, &out)?);
            overhead_us.push((pooled.as_secs_f64() - start.elapsed().as_secs_f64()) * 1e6);
        }
        metrics.insert("serve.overhead_us", stats::median(&overhead_us));
        Ok(())
    }
}

impl Workload for ServeMixed {
    /// A request runs on a pool worker while the submitter sleeps: its
    /// latency is the CPU time the whole process spent meanwhile.
    fn clock(&self) -> Clock {
        Clock::Process
    }

    fn docs(&self) -> Vec<DocInfo> {
        vec![self.doc_info.clone(); Self::DOCS]
    }

    fn classes(&self) -> Vec<ClassInfo> {
        SERVE_CLASSES
            .iter()
            .map(|name| ClassInfo {
                name: name.to_string(),
                query: "",
                doc: 0,
                answer_bytes: 0,
            })
            .collect()
    }

    fn setup(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        self.shutdown();
        let store = sut::store();
        let mut shadow = Vec::with_capacity(Self::DOCS);
        for (d, name) in self.names.iter().enumerate() {
            let doc = gen::auction_doc(self.seed, Self::STREAM_BASE + d as u64, ITEMS_3K);
            let (d, xml) = (d as u32, &doc.xml);
            match d % 3 {
                0 => tracer.setup("catalog.insert", d, || {
                    sut::store_insert_xml(&store, name, xml)
                })?,
                1 => tracer.setup("catalog.insert", d, || {
                    sut::store_insert_lazy(&store, name, xml)
                })?,
                _ => {
                    let image = sut::snapshot_image(&parse_and_prepare(tracer, d, xml)?);
                    tracer.setup("catalog.insert", d, || {
                        sut::store_insert_snapshot(&store, name, image)
                    })?
                }
            }
            shadow.push(doc.facts);
        }
        // Every query once on every document: fills the plan cache, grows
        // each lazy document to the wave the mix needs (node ids are only
        // stable once it has), and checks the stored documents.
        for (name, facts) in self.names.iter().zip(&shadow) {
            for query in Self::queries() {
                let out = sut::store_evaluate(&store, name, query.text)?;
                let answer = sut::store_answer(&store, name, &out)?;
                if !oracle::check(&query.expect(facts), None, &answer) {
                    return Err(format!("{} on {name} answered wrongly in set-up", query.id));
                }
            }
        }
        let pool = sut::pool(&store, sut::nproc().saturating_sub(1).max(1));
        self.serving = Some(Serving {
            store,
            pool,
            shadow,
            schedule: Rng::fork(self.seed, Self::STREAM_BASE - 3),
            ops: 0,
            window: VecDeque::new(),
        });
        Ok(())
    }

    fn pass(&mut self, tracer: &mut Tracer, recorder: &mut Recorder) -> Pass {
        let clock = self.clock();
        let start = clock.now();
        let before = recorder.attempted;
        for _ in 0..Self::BLOCK {
            let serving = self.serving.as_mut().expect("set-up ran");
            serving.ops += 1;
            let op = serving.ops;
            if op.is_multiple_of(Self::WRITE_EVERY) {
                self.write(tracer, recorder, op / Self::WRITE_EVERY);
            } else {
                self.read(tracer, recorder);
            }
        }
        Pass {
            ops: (recorder.attempted - before) as usize,
            seconds: clock.between(start, clock.now()) as f64 / 1e9,
        }
    }

    fn mark(&mut self) {
        let serving = self.serving.as_ref().expect("set-up ran");
        self.counts_mark = sut::store_counts(&serving.store);
        (self.writes, self.killed, self.renumbered) = (0, 0, 0);
    }

    fn finish(&mut self, tracer: &mut Tracer, metrics: &mut Metrics) -> Result<(), String> {
        let mut drained = Recorder::new(SERVE_CLASSES.len());
        while !self.serving.as_ref().expect("set-up ran").window.is_empty() {
            self.complete_oldest(&mut Tracer::new(self.clock()), &mut drained);
        }
        let now = sut::store_counts(&self.serving.as_ref().expect("set-up ran").store);
        let mark = self.counts_mark;
        let rate = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
        metrics.insert(
            "catalog.artifact_hit_rate",
            rate(
                now.artifact_hits - mark.artifact_hits,
                now.artifact_misses - mark.artifact_misses,
            ),
        );
        metrics.insert(
            "catalog.resolve_hit_rate",
            rate(
                now.resolve_hits - mark.resolve_hits,
                now.resolve_misses - mark.resolve_misses,
            ),
        );
        let writes = self.writes.max(1) as f64;
        metrics.insert(
            "catalog.artifacts_killed_per_write",
            self.killed as f64 / writes,
        );
        metrics.insert("live.renumber_share", self.renumbered as f64 / writes);
        if tracer.on {
            self.probe(tracer, metrics)?;
            // One figure for three kinds of insert: equal weight per kind.
            let kinds: Vec<f64> = (0..3)
                .map(|kind| {
                    let micros: Vec<f64> = (kind..Self::DOCS as u32)
                        .step_by(3)
                        .flat_map(|d| tracer.micros("catalog.insert", Some(d)))
                        .collect();
                    stats::median(&micros)
                })
                .collect();
            metrics.insert("catalog.insert.us", stats::geomean(&kinds));
        }
        let counts = self.shutdown().expect("set-up ran");
        metrics.insert("serve.queue_wait.p50_us", counts.queue_wait_p50_us);
        metrics.insert("serve.exec.p50_us", counts.exec_p50_us);
        metrics.insert("serve.rejected", counts.rejected as f64);
        if drained.failed > 0 || counts.rejected > 0 {
            return Err(format!(
                "{} reads failed while draining, {} jobs were refused or lost",
                drained.failed, counts.rejected
            ));
        }
        Ok(())
    }
}
