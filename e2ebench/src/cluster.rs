//! A `mind-node` process cluster owned by the benchmark.
//!
//! The benchmark spawns its children on ephemeral localhost ports with
//! `MIND_STORE`/`MIND_SHARDS` removed from their environment, so the
//! measured store backend is always the shipped default. Dropping a
//! [`ProcCluster`] (including while a panic unwinds) kills and reaps every
//! child still running; [`ProcCluster::shutdown`] is the clean path, and
//! fails unless every node exits 0 after a control-protocol `Shutdown`.

use mind_audit::NodeSnapshot;
use mind_audit::{Auditor, Snapshot};
use mind_core::QueryOutcome;
use mind_core::Replication;
use mind_net::HostStatsSnapshot;
use mind_runtime::loadgen::load_schema;
use mind_runtime::{ClusterSpec, ControlClient, ControlRequest, ControlResponse};
use mind_types::{HyperRect, Record};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Index tag every tcp workload creates.
pub const INDEX: &str = "e2e-flows";
/// Even cut-tree depth of that index.
pub const DEPTH: u8 = 8;
/// How long a node may take to come up or to exit.
const PROCESS_DEADLINE: Duration = Duration::from_secs(20);
/// Polling interval while a cluster comes up. Kept short so `setup_s`
/// measures the cluster, not the poll granularity.
const SETUP_POLL: Duration = Duration::from_millis(1);

/// An I/O error carrying a message.
pub fn err(msg: impl Into<String>) -> io::Error {
    io::Error::other(msg.into())
}

/// A running cluster of `mind-node` children plus one control connection
/// per node.
pub struct ProcCluster {
    spec: ClusterSpec,
    children: Vec<Child>,
    clients: Vec<ControlClient>,
    dir: PathBuf,
}

impl ProcCluster {
    /// Spawns `n` nodes and waits until each answers a ping. A port taken
    /// between reservation and bind shows as a node that never answers;
    /// the whole cluster is then respawned on fresh ports.
    pub fn spawn(node_bin: &Path, dir: &Path, n: usize) -> io::Result<Self> {
        let mut last = err("no spawn attempted");
        for _ in 0..3 {
            match Self::spawn_once(node_bin, dir, n) {
                Ok(c) => return Ok(c),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    fn spawn_once(node_bin: &Path, dir: &Path, n: usize) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let spec = ClusterSpec::localhost(n)?;
        let spec_path = dir.join("cluster.txt");
        std::fs::write(&spec_path, spec.render())?;
        let mut cluster = ProcCluster {
            spec,
            children: Vec::with_capacity(n),
            clients: Vec::with_capacity(n),
            dir: dir.to_path_buf(),
        };
        for k in 0..n {
            let log = std::fs::File::create(dir.join(format!("node{k}.log")))?;
            let child = Command::new(node_bin)
                .arg("--id")
                .arg(k.to_string())
                .arg("--cluster")
                .arg(&spec_path)
                .env_remove("MIND_STORE")
                .env_remove("MIND_SHARDS")
                .stdin(Stdio::null())
                .stdout(log.try_clone()?)
                .stderr(log)
                .spawn()?;
            cluster.children.push(child);
        }
        for node in &cluster.spec.nodes {
            cluster.clients.push(connect_ready(node.control_addr)?);
        }
        Ok(cluster)
    }

    /// Fresh connections to every node, in id order, for a worker thread.
    pub fn connect_all(&self) -> io::Result<Vec<ControlClient>> {
        self.spec
            .nodes
            .iter()
            .map(|n| ControlClient::connect(n.control_addr, Duration::from_secs(5)))
            .collect()
    }

    /// The benchmark's control connection to node `k`.
    pub fn client(&mut self, k: usize) -> &mut ControlClient {
        &mut self.clients[k]
    }

    /// Creates the workload index from node 0 and waits until every node's
    /// catalog holds it.
    pub fn create_index(&mut self, replication: Replication) -> io::Result<()> {
        let req = ControlRequest::CreateIndex {
            schema: load_schema(INDEX),
            depth: DEPTH,
            replication,
        };
        match self.clients[0].call(&req)? {
            ControlResponse::Ok => {}
            r => return Err(err(format!("create_index: {r:?}"))),
        }
        let deadline = Instant::now() + PROCESS_DEADLINE;
        loop {
            let mut all = true;
            for c in &mut self.clients {
                match c.call(&ControlRequest::Catalog)? {
                    ControlResponse::Catalog(tags) => all &= tags.iter().any(|t| t == INDEX),
                    r => return Err(err(format!("catalog: {r:?}"))),
                }
            }
            if all {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(err("index flood never reached every node"));
            }
            std::thread::sleep(SETUP_POLL);
        }
    }

    /// Rows each node holds as primary.
    pub fn primary_rows(&mut self) -> io::Result<Vec<u64>> {
        let req = ControlRequest::PrimaryRows {
            index: INDEX.into(),
        };
        self.clients
            .iter_mut()
            .map(|c| match c.call(&req)? {
                ControlResponse::Count(k) => Ok(k),
                r => Err(err(format!("primary_rows: {r:?}"))),
            })
            .collect()
    }

    /// Waits until the summed primary rows reach `target`, polling every
    /// `poll`; returns whether they did before `timeout`.
    pub fn wait_stored(
        &mut self,
        target: u64,
        poll: Duration,
        timeout: Duration,
    ) -> io::Result<bool> {
        let deadline = Instant::now() + timeout;
        loop {
            let stored: u64 = self.primary_rows()?.iter().sum();
            if stored >= target {
                return Ok(stored == target);
            }
            if Instant::now() >= deadline {
                return Ok(false);
            }
            std::thread::sleep(poll);
        }
    }

    /// Waits until every primary row has its replica (`Replication::Level(1)`
    /// keeps one copy per row); returns whether that happened before
    /// `timeout`.
    pub fn wait_replicated(&mut self, timeout: Duration) -> io::Result<bool> {
        let deadline = Instant::now() + timeout;
        loop {
            let (mut primary, mut replica) = (0u64, 0u64);
            for s in self.snapshots()? {
                for v in s.indexes.get(INDEX).iter().flat_map(|i| &i.versions) {
                    primary += v.primary_rows;
                    replica += v.replica_rows;
                }
            }
            if replica >= primary {
                return Ok(replica == primary);
            }
            if Instant::now() >= deadline {
                return Ok(false);
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Every node's transport counters.
    pub fn host_stats(&mut self) -> io::Result<Vec<HostStatsSnapshot>> {
        self.clients
            .iter_mut()
            .map(|c| match c.call(&ControlRequest::HostStats)? {
                ControlResponse::HostStats(s) => Ok(s),
                r => Err(err(format!("host_stats: {r:?}"))),
            })
            .collect()
    }

    /// Every node's audited state.
    pub fn snapshots(&mut self) -> io::Result<Vec<NodeSnapshot>> {
        self.clients
            .iter_mut()
            .map(|c| match c.call(&ControlRequest::Snapshot)? {
                ControlResponse::Snapshot(s) => Ok(s),
                r => Err(err(format!("snapshot: {r:?}"))),
            })
            .collect()
    }

    /// Summed resident-memory peaks of the node processes, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.children
            .iter()
            .filter_map(|c| crate::stats::peak_rss_mb(&c.id().to_string()))
            .sum()
    }

    /// Sends every node a control-protocol `Shutdown` and waits for the
    /// processes; fails unless each exits 0. Removes the run directory.
    pub fn shutdown(mut self) -> io::Result<()> {
        for c in &mut self.clients {
            c.call(&ControlRequest::Shutdown)?;
        }
        let deadline = Instant::now() + PROCESS_DEADLINE;
        let mut bad = Vec::new();
        for (k, child) in self.children.iter_mut().enumerate() {
            let status = loop {
                if let Some(s) = child.try_wait()? {
                    break Some(s);
                }
                if Instant::now() >= deadline {
                    break None;
                }
                std::thread::sleep(Duration::from_millis(5));
            };
            match status {
                Some(s) if s.success() => {}
                other => bad.push(format!("node {k}: {other:?}")),
            }
        }
        if !bad.is_empty() {
            return Err(err(format!(
                "nodes did not exit 0 after Shutdown ({}); logs in {}",
                bad.join(", "),
                self.dir.display()
            )));
        }
        self.children.clear();
        std::fs::remove_dir_all(&self.dir)
    }
}

impl Drop for ProcCluster {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Connects to a node's control address once it answers a ping.
fn connect_ready(addr: SocketAddr) -> io::Result<ControlClient> {
    let deadline = Instant::now() + PROCESS_DEADLINE;
    loop {
        if let Ok(mut c) = ControlClient::connect(addr, Duration::from_millis(250)) {
            if let Ok(ControlResponse::Pong) = c.call(&ControlRequest::Ping) {
                return Ok(c);
            }
        }
        if Instant::now() >= deadline {
            return Err(err(format!("{addr} never answered a ping")));
        }
        std::thread::sleep(SETUP_POLL);
    }
}

/// Runs the settled invariant catalog over the assembled fleet snapshot.
pub fn audit_clean(nodes: Vec<NodeSnapshot>) -> bool {
    Auditor::settled()
        .audit(&Snapshot { now: 0, nodes })
        .is_clean()
}

/// Sends one `Insert` of `rows`; `Ok(false)` when the node refused it.
pub fn insert(c: &mut ControlClient, rows: Vec<Record>) -> io::Result<bool> {
    let req = ControlRequest::Insert {
        index: INDEX.into(),
        rows,
    };
    Ok(matches!(c.call(&req)?, ControlResponse::Ok))
}

/// Runs one range query; `Ok(None)` when the node answered with an error.
pub fn query(c: &mut ControlClient, rect: &HyperRect) -> io::Result<Option<QueryOutcome>> {
    let req = ControlRequest::Query {
        index: INDEX.into(),
        lo: rect.los().to_vec(),
        hi: rect.his().to_vec(),
    };
    Ok(match c.call(&req)? {
        ControlResponse::Query(o) => Some(o),
        _ => None,
    })
}
