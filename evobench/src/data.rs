//! Seeded input generation: base relations, FD lists and statement
//! streams. Everything here runs before timing starts, and the same seed
//! always gives the same inputs.

use std::collections::HashMap;

use evofd_core::Fd;
use evofd_datagen::{ColumnSpec, SyntheticSpec};
use evofd_storage::{Relation, Value};

/// SplitMix64: a small, fast, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next();
        r
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A synthetic table: integer key `a0` (a secondary index), categorical
/// determinants and planted near-FD dependents.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Table name.
    pub name: &'static str,
    /// Base rows.
    pub rows: usize,
    /// Column generators; column 0 is the unique integer key.
    pub columns: Vec<ColumnSpec>,
    /// Tracked FDs, as SQL text.
    pub fds: Vec<&'static str>,
    /// Columns that are the right-hand side of a planted FD (targets of
    /// UPDATE statements and of planted violations).
    pub rhs_columns: Vec<usize>,
}

/// Seed of the base relations. A base relation is a fixed data set, as
/// the TPC-H catalog is; `--seed` drives the statements run against it.
/// The violations a base relation happens to contain decide the size of
/// its repair lattices, so a seeded base table would make `peak_rss_mb`
/// and the designer pass vary with the seed rather than with the code.
pub const DATA_SEED: u64 = 2016;

impl TableSpec {
    /// Generate the base relation.
    pub fn generate(&self) -> Relation {
        SyntheticSpec {
            name: self.name.to_string(),
            n_rows: self.rows,
            columns: self.columns.clone(),
            seed: DATA_SEED,
        }
        .generate()
    }
}

fn derived(sources: Vec<usize>, cardinality: usize, violation_rate: f64) -> ColumnSpec {
    ColumnSpec::Derived { sources, cardinality, violation_rate }
}

fn categorical(cardinality: usize) -> ColumnSpec {
    ColumnSpec::Categorical { cardinality }
}

/// The ingest table: 50,000 rows, 8 tracked FDs — four planted near-FDs
/// at 0.1–1% violation and four exact key FDs.
pub fn ingest_table() -> TableSpec {
    TableSpec {
        name: "ingest",
        rows: 50_000,
        columns: vec![
            ColumnSpec::Unique,
            categorical(400),
            categorical(60),
            categorical(2000),
            derived(vec![1], 150, 0.002),
            derived(vec![2], 40, 0.005),
            derived(vec![3], 800, 0.01),
            derived(vec![1, 2], 500, 0.001),
        ],
        fds: vec![
            "a1 -> a4",
            "a2 -> a5",
            "a3 -> a6",
            "a1, a2 -> a7",
            "a0 -> a1",
            "a0 -> a2",
            "a0 -> a3",
            "a0 -> a7",
        ],
        rhs_columns: vec![4, 5, 6, 7],
    }
}

/// The served table: 10,000 rows, 2 tracked FDs (one exact, so the
/// planner's FD-aware GROUP BY collapse applies; one near-FD).
pub fn served_table() -> TableSpec {
    TableSpec {
        name: "served",
        rows: 10_000,
        columns: vec![
            ColumnSpec::Unique,
            categorical(200),
            categorical(40),
            derived(vec![1], 100, 0.0),
            derived(vec![2], 20, 0.002),
            categorical(50),
        ],
        fds: vec!["a1 -> a3", "a2 -> a4"],
        rhs_columns: vec![4],
    }
}

/// The designer's synthetic table: 50,000 rows, larger than cache, tracking
/// only its key FD at set-up (so its writes feed trackers and history);
/// [`designer_pool`] holds its candidate FDs.
pub fn designer_table() -> TableSpec {
    TableSpec {
        name: "pool",
        rows: 50_000,
        columns: vec![
            ColumnSpec::Unique,
            categorical(500),
            categorical(80),
            categorical(3000),
            derived(vec![1], 200, 0.003),
            derived(vec![2], 50, 0.0),
            derived(vec![3], 900, 0.008),
            derived(vec![1, 2], 600, 0.0),
        ],
        fds: vec!["a0 -> a3"],
        rhs_columns: vec![4, 6],
    }
}

/// The designer's pool of candidate FDs over [`designer_table`]: planted
/// near-FDs, exact FDs and implied variants, about ten in all.
pub fn designer_pool() -> Vec<&'static str> {
    vec![
        "a1 -> a4",
        "a2 -> a5",
        "a3 -> a6",
        "a1, a2 -> a7",
        "a1, a2 -> a5",
        "a0 -> a3",
        "a0 -> a4",
        "a2, a3 -> a5",
        "a5 -> a2",
        "a7 -> a1",
    ]
}

/// Parse FD texts against a relation's schema.
pub fn parse_fds(rel: &Relation, fds: &[&str]) -> Result<Vec<Fd>, String> {
    fds.iter().map(|f| Fd::parse(rel.schema(), f).map_err(|e| format!("FD `{f}`: {e}"))).collect()
}

/// One generated statement and what it does to the table model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Single-row INSERT.
    Insert,
    /// Single-row UPDATE located by the indexed key.
    Update,
    /// Single-row DELETE located by the indexed key.
    Delete,
    /// Indexed point SELECT.
    Point,
    /// FD-collapsible GROUP BY.
    GroupBy,
    /// `COUNT(*)`.
    Count,
    /// `SHOW FDS`.
    ShowFds,
}

impl Kind {
    /// The latency class the statement is reported under.
    pub fn class(self) -> &'static str {
        match self {
            Kind::Insert => "insert",
            Kind::Update | Kind::Delete => "modify",
            _ => "read",
        }
    }
}

/// A generated statement: SQL text, kind, and for point reads the key
/// and the row the read must return.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Statement kind.
    pub kind: Kind,
    /// SQL text.
    pub sql: String,
    /// Expected row of a point read (rendered values, in column order).
    pub expect: Option<Vec<String>>,
}

/// The benchmark's model of a table's live rows, keyed by `a0`: what
/// statements are generated against and what reads are checked with.
#[derive(Debug, Clone)]
pub struct Model {
    name: &'static str,
    rows: HashMap<i64, Vec<Value>>,
    keys: Vec<i64>,
    pos: HashMap<i64, usize>,
    templates: Relation,
    rhs_columns: Vec<usize>,
    next_key: i64,
}

/// Render a value as a SQL literal.
pub fn literal(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("'{s}'"),
        other => other.to_string(),
    }
}

impl Model {
    /// Model the base relation of `spec`.
    pub fn new(spec: &TableSpec, base: &Relation) -> Model {
        let mut m = Model {
            name: spec.name,
            rows: HashMap::with_capacity(base.row_count()),
            keys: Vec::with_capacity(base.row_count()),
            pos: HashMap::with_capacity(base.row_count()),
            templates: base.clone(),
            rhs_columns: spec.rhs_columns.clone(),
            next_key: base.row_count() as i64,
        };
        for r in 0..base.row_count() {
            let row = base.row(r);
            let Value::Int(k) = row[0] else { panic!("column a0 is the integer key") };
            m.add(k, row);
        }
        m
    }

    fn add(&mut self, key: i64, row: Vec<Value>) {
        self.pos.insert(key, self.keys.len());
        self.keys.push(key);
        self.rows.insert(key, row);
    }

    fn remove(&mut self, key: i64) {
        let at = self.pos.remove(&key).expect("live key");
        self.keys.swap_remove(at);
        if let Some(&moved) = self.keys.get(at) {
            self.pos.insert(moved, at);
        }
        self.rows.remove(&key);
    }

    /// Table name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Live row count.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// A uniformly chosen live key.
    pub fn random_key(&self, rng: &mut Rng) -> i64 {
        self.keys[rng.below(self.keys.len())]
    }

    /// A uniformly chosen key of the base relation (never deleted when
    /// the stream has no deletes).
    pub fn random_base_key(&self, rng: &mut Rng) -> i64 {
        rng.below(self.templates.row_count()) as i64
    }

    /// The model row of a live key.
    pub fn row(&self, key: i64) -> &[Value] {
        &self.rows[&key]
    }

    /// A new row: a copy of a random base row under a fresh key; with
    /// probability `plant`, one FD right-hand side is replaced by a
    /// random value, planting a violation.
    pub fn insert(&mut self, rng: &mut Rng, plant: f64) -> Stmt {
        let key = self.next_key;
        self.next_key += 1;
        let mut row = self.templates.row(rng.below(self.templates.row_count()));
        row[0] = Value::Int(key);
        if !self.rhs_columns.is_empty() && rng.unit() < plant {
            let col = self.rhs_columns[rng.below(self.rhs_columns.len())];
            row[col] = Value::str(format!("x{}", rng.below(1000)));
        }
        let values: Vec<String> = row.iter().map(literal).collect();
        let sql = format!("INSERT INTO {} VALUES ({})", self.name, values.join(", "));
        self.add(key, row);
        Stmt { kind: Kind::Insert, sql, expect: None }
    }

    /// UPDATE one FD right-hand-side column of a random live row to the
    /// value that column has in a random base row.
    pub fn update(&mut self, rng: &mut Rng) -> Stmt {
        let key = self.random_key(rng);
        let col = self.rhs_columns[rng.below(self.rhs_columns.len())];
        let value = self.templates.row(rng.below(self.templates.row_count()))[col].clone();
        let sql = format!("UPDATE {} SET a{col} = {} WHERE a0 = {key}", self.name, literal(&value));
        self.rows.get_mut(&key).expect("live key")[col] = value;
        Stmt { kind: Kind::Update, sql, expect: None }
    }

    /// DELETE a random live row by key.
    pub fn delete(&mut self, rng: &mut Rng) -> Stmt {
        let key = self.random_key(rng);
        self.remove(key);
        Stmt {
            kind: Kind::Delete,
            sql: format!("DELETE FROM {} WHERE a0 = {key}", self.name),
            expect: None,
        }
    }

    /// An indexed point read of `key`, expecting its model row.
    pub fn point(&self, key: i64) -> Stmt {
        Stmt {
            kind: Kind::Point,
            sql: format!("SELECT * FROM {} WHERE a0 = {key}", self.name),
            expect: Some(self.row(key).iter().map(|v| v.to_string()).collect()),
        }
    }

    /// The ingest mix: 80% INSERT (2% of them planting a violation), 10%
    /// UPDATE-by-key of an FD right-hand side, 10% DELETE-by-key.
    pub fn write_stream(&mut self, rng: &mut Rng, n: usize) -> Vec<Stmt> {
        (0..n)
            .map(|_| match rng.below(10) {
                0 => self.update(rng),
                1 => self.delete(rng),
                _ => self.insert(rng, 0.02),
            })
            .collect()
    }
}

/// Check a rendered point-read result: exactly one data row whose cells
/// equal `expect`. `text` is [`Relation::render`] output: a header line,
/// a rule line, then `a | b | …` rows.
pub fn check_point_render(text: &str, expect: &[String]) -> Result<(), String> {
    let rows: Vec<Vec<&str>> = text
        .lines()
        .skip(2)
        .filter(|l| !l.trim().is_empty() && !l.starts_with('('))
        .map(|l| l.split('|').map(str::trim).collect())
        .collect();
    match rows.as_slice() {
        [row] if row.iter().copied().eq(expect.iter().map(String::as_str)) => Ok(()),
        _ => Err(format!("point read returned {rows:?}, expected [{expect:?}]")),
    }
}

/// Check a point-read relation: exactly one row equal to `expect`.
pub fn check_point_rows(rel: &Relation, expect: &[String]) -> Result<(), String> {
    let got: Vec<Vec<String>> =
        (0..rel.row_count()).map(|r| rel.row(r).iter().map(|v| v.to_string()).collect()).collect();
    if got.len() == 1 && got[0] == expect {
        Ok(())
    } else {
        Err(format!("point read returned {got:?}, expected [{expect:?}]"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_model_tracks_it() {
        let spec = TableSpec { rows: 200, ..ingest_table() };
        let base = spec.generate();
        let run = |seed| {
            let mut m = Model::new(&spec, &base);
            let mut rng = Rng::new(seed, 1);
            let s: Vec<String> = m.write_stream(&mut rng, 300).into_iter().map(|s| s.sql).collect();
            (s, m.len())
        };
        let (a, len) = run(9);
        assert_eq!(a, run(9).0);
        assert_ne!(a, run(10).0);
        let inserts = a.iter().filter(|s| s.starts_with("INSERT")).count();
        let deletes = a.iter().filter(|s| s.starts_with("DELETE")).count();
        assert_eq!(len, 200 + inserts - deletes);
    }

    #[test]
    fn point_render_check_accepts_only_the_expected_row() {
        let text = "a0 | a1\n-------\n7 | v3\n";
        assert!(check_point_render(text, &["7".into(), "v3".into()]).is_ok());
        assert!(check_point_render(text, &["7".into(), "v4".into()]).is_err());
        assert!(check_point_render("a0 | a1\n-------\n", &["7".into(), "v3".into()]).is_err());
    }
}
