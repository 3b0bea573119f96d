//! The three workloads, and set-up of the engine each one runs on.

use jits::{JitsConfig, QssArchive};
use jits_catalog::Catalog;
use jits_common::Result;
use jits_engine::{Database, QueryResult, Session, SharedDatabase, StatsSetting};
use jits_obs::Observability;
use jits_storage::Table;
use jits_workload::{
    create_schema, generate_workload, populate, prepare, setup_database, DataGenConfig, Setting,
    WorkloadOp, WorkloadSpec,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One benchmark workload: the §4.2 generator with a scale, a DML cadence,
/// a JITS threshold, and an in-memory or durable engine.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Fraction of the paper's Table 2 row counts.
    pub scale: f64,
    /// Every n-th op is a DML batch.
    pub dml_every: usize,
    /// JITS sensitivity threshold (`JitsConfig::s_max`).
    pub s_max: f64,
    /// Run on `Database::open` (WAL, checkpoints) through one `Session`.
    pub durable: bool,
    /// Ops in one episode: a fresh set-up followed by this many statements.
    pub episode_ops: usize,
    /// Nominal seconds of statement time per episode: a run of `--seconds`
    /// is `seconds / episode_seconds` episodes, so every run of a workload
    /// does the same work whatever the box's speed. The values are about
    /// what an episode takes on a 2-vCPU box (less for `durable_churn`,
    /// whose 20-second runs are 4 episodes to keep the run short).
    pub episode_seconds: f64,
    /// Set-ups timed per episode for `setup_s` (the episode runs on the
    /// last); more where a set-up is short.
    pub setups_per_episode: usize,
}

/// All workloads.
pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "paper_mix",
        scale: 0.01,
        dml_every: 12,
        s_max: 0.5,
        durable: false,
        episode_ops: 840,
        episode_seconds: 2.0,
        setups_per_episode: 3,
    },
    WorkloadDef {
        name: "jits_heavy",
        scale: 0.002,
        dml_every: 12,
        s_max: 0.0,
        durable: false,
        episode_ops: 2520,
        episode_seconds: 2.5,
        setups_per_episode: 6,
    },
    WorkloadDef {
        name: "durable_churn",
        scale: 0.01,
        dml_every: 3,
        s_max: 0.5,
        durable: true,
        // 1,200 statements cross the 512-record checkpoint trigger twice
        episode_ops: 1200,
        episode_seconds: 5.0,
        setups_per_episode: 3,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<WorkloadDef> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl WorkloadDef {
    /// The JITS configuration the workload runs with.
    pub fn jits_config(&self) -> JitsConfig {
        JitsConfig {
            s_max: self.s_max,
            ..JitsConfig::default()
        }
    }

    /// Data generation for `seed`.
    pub fn datagen(&self, seed: u64) -> DataGenConfig {
        DataGenConfig {
            scale: self.scale,
            seed: seed ^ 0x2007_1CDE,
        }
    }

    /// The engine seed for data generated from `seed`, as
    /// `jits_workload::setup_database` derives it.
    pub fn db_seed(&self, seed: u64) -> u64 {
        self.datagen(seed).seed ^ 0xD1B
    }

    /// Episodes in a run of `seconds`.
    pub fn episodes(&self, seconds: u64) -> usize {
        ((seconds as f64 / self.episode_seconds).round() as usize).max(1)
    }

    /// The seed of episode `k` of a run seeded with `seed`.
    pub fn episode_seed(seed: u64, k: usize) -> u64 {
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(k as u64)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
    }

    /// The op stream of an episode seeded with `seed`.
    pub fn ops(&self, seed: u64) -> Vec<WorkloadOp> {
        let datagen = self.datagen(seed);
        let spec = WorkloadSpec {
            total_ops: self.episode_ops,
            dml_every: self.dml_every,
            seed: datagen.seed ^ 0x77,
        };
        generate_workload(&spec, &datagen)
    }
}

/// The engine a workload drives: a single-owner in-memory `Database`, or a
/// durable `SharedDatabase` driven through one `Session`.
pub enum Engine {
    /// In-memory single-owner database.
    Mem(Box<Database>),
    /// Durable shared database and its one client session.
    Durable {
        /// The shared state (checkpoint, clock, locks).
        shared: SharedDatabase,
        /// The client session statements run on.
        session: Session,
    },
}

impl Engine {
    /// Executes one statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        match self {
            Engine::Mem(db) => db.execute(sql),
            Engine::Durable { session, .. } => session.execute(sql),
        }
    }

    /// The logical statement clock.
    pub fn clock(&self) -> u64 {
        match self {
            Engine::Mem(db) => db.clock(),
            Engine::Durable { shared, .. } => shared.clock(),
        }
    }

    /// Observability state (metrics registry).
    pub fn obs(&self) -> &Arc<Observability> {
        match self {
            Engine::Mem(db) => db.obs(),
            Engine::Durable { shared, .. } => shared.obs(),
        }
    }

    /// Runs `f` over the catalog, tables, and QSS archive, under read
    /// guards for the shared engine (taken in lock-rank order).
    pub fn with_state<R>(&self, f: impl FnOnce(&Catalog, &[Table], &QssArchive) -> R) -> R {
        match self {
            Engine::Mem(db) => f(db.catalog(), db.tables(), db.archive()),
            Engine::Durable { shared, .. } => {
                shared.with_catalog(|c| shared.with_tables(|t| shared.with_archive(|a| f(c, t, a))))
            }
        }
    }

    /// Forces a checkpoint (durable engine only).
    pub fn checkpoint(&self) -> Result<Option<u64>> {
        match self {
            Engine::Mem(_) => Ok(None),
            Engine::Durable { shared, .. } => shared.checkpoint(),
        }
    }

    /// Sets the automatic checkpoint cadence (durable engine only).
    pub fn set_checkpoint_every(&self, every: u64) {
        if let Engine::Durable { shared, .. } = self {
            shared.set_checkpoint_every(every);
        }
    }
}

/// A set-up engine and what set-up cost.
pub struct Setup {
    /// The engine, ready for the op stream.
    pub engine: Engine,
    /// Wall time of the whole set-up.
    pub total: Duration,
    /// Wall time of `populate` alone.
    pub populate: Duration,
}

/// Builds the workload's engine: schema, population, the JITS setting, and
/// for the durable engine a fresh data dir with an initial checkpoint (so
/// the op stream starts a fresh log generation).
pub fn setup(def: &WorkloadDef, seed: u64, dir: Option<&Path>) -> Result<Setup> {
    let datagen = def.datagen(seed);
    let db_seed = def.db_seed(seed);
    if let Some(dir) = dir {
        remove_dir(dir);
    }
    let t0 = Instant::now();
    let mut db = match dir {
        Some(dir) => Database::open(db_seed, dir)?,
        None => Database::new(db_seed),
    };
    create_schema(&mut db)?;
    let tp = Instant::now();
    populate(&mut db, &datagen)?;
    let populate_wall = tp.elapsed();
    prepare(&mut db, &Setting::Jits(def.jits_config()), &[])?;
    let engine = if dir.is_some() {
        let shared = db.into_shared();
        let session = shared.session();
        shared.checkpoint()?;
        Engine::Durable { shared, session }
    } else {
        Engine::Mem(Box::new(db))
    };
    Ok(Setup {
        engine,
        total: t0.elapsed(),
        populate: populate_wall,
    })
}

/// The answer oracle's engine: the same data on a fresh in-memory
/// `Database` with no statistics and no data skipping.
pub fn oracle(def: &WorkloadDef, seed: u64) -> Result<Database> {
    let mut db = setup_database(&def.datagen(seed))?;
    db.set_setting(StatsSetting::NoStatistics);
    db.set_data_skipping(false);
    Ok(db)
}

/// Reopens a durable data dir (recovery).
pub fn reopen(def: &WorkloadDef, seed: u64, dir: &Path) -> Result<Database> {
    Database::open(def.db_seed(seed), dir)
}

/// Removes a data dir, ignoring a missing one.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Files of a data dir with their sizes, sorted by name.
pub fn dir_files(dir: &Path) -> Vec<(PathBuf, u64)> {
    let mut files: Vec<(PathBuf, u64)> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| Some((e.path(), e.metadata().ok()?.len())))
        .collect();
    files.sort();
    files
}
