//! A `NetworkFunction` wrapper around `AssetMonitor` that stamps every
//! processed packet and, when tracing, times the NF's southbound calls.
//!
//! The per-packet stamp (one clock read) is taken in untraced and traced
//! runs alike, so its cost is the same on both sides of a comparison.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use opennf_nf::{Chunk, LogRecord, NetworkFunction, NfFault, StateError};
use opennf_nfs::AssetMonitor;
use opennf_packet::{Filter, FlowId, Packet};

/// Chunks in the export batch the probe captures for the wire replay
/// (the engine's streaming batch size).
pub const CAPTURE_CHUNKS: usize = 64;

/// Time and item count of one kind of NF call.
#[derive(Default)]
pub struct CallTimer {
    /// Total ns inside the call.
    pub ns: AtomicU64,
    /// Items handled (packets or flows).
    pub items: AtomicU64,
}

impl CallTimer {
    fn add(&self, since: Instant, items: usize) -> Instant {
        let now = Instant::now();
        self.ns.fetch_add((now - since).as_nanos() as u64, Relaxed);
        self.items.fetch_add(items as u64, Relaxed);
        now
    }

    /// Mean ns per item (0 when no item was handled).
    pub fn ns_per_item(&self) -> f64 {
        let items = self.items.load(Relaxed);
        if items == 0 {
            0.0
        } else {
            self.ns.load(Relaxed) as f64 / items as f64
        }
    }
}

/// State shared by every probe of one run, read by the benchmark.
pub struct Probes {
    /// Clock origin of the stamps.
    pub base: Instant,
    /// For traffic uid `u`, ns after `base` at which a worker last
    /// processed it (0 = never). Uids outside the table are not stamped.
    pub stamps: Vec<AtomicU64>,
    /// Whether the southbound calls are timed.
    pub traced: bool,
    /// `process_packet`.
    pub process: CallTimer,
    /// `get_perflow` (items: flows exported).
    pub get: CallTimer,
    /// `put_perflow` (items: flows imported).
    pub put: CallTimer,
    /// `del_perflow` (items: flows deleted).
    pub del: CallTimer,
    /// The first [`CAPTURE_CHUNKS`] chunks the NFs exported (traced).
    pub batch: Mutex<Vec<Chunk>>,
}

impl Probes {
    /// Probes stamping traffic uids `1..=packets`.
    pub fn new(base: Instant, packets: usize, traced: bool) -> Arc<Self> {
        Arc::new(Probes {
            base,
            stamps: (0..=packets).map(|_| AtomicU64::new(0)).collect(),
            traced,
            process: CallTimer::default(),
            get: CallTimer::default(),
            put: CallTimer::default(),
            del: CallTimer::default(),
            batch: Mutex::new(Vec::new()),
        })
    }

    /// Zeroes the call timers (set-up work is not measured).
    pub fn reset(&self) {
        for t in [&self.process, &self.get, &self.put, &self.del] {
            t.ns.store(0, Relaxed);
            t.items.store(0, Relaxed);
        }
    }

    /// Total ns the wrapped NFs spent inside timed calls.
    pub fn busy_ns(&self) -> u64 {
        [&self.process, &self.get, &self.put, &self.del]
            .iter()
            .map(|t| t.ns.load(Relaxed))
            .sum()
    }

    /// A fresh wrapped `AssetMonitor` reporting here.
    pub fn monitor(self: &Arc<Self>) -> Box<dyn NetworkFunction> {
        Box::new(Probe {
            nf: AssetMonitor::new(),
            probes: self.clone(),
        })
    }
}

/// The wrapper itself.
struct Probe {
    nf: AssetMonitor,
    probes: Arc<Probes>,
}

impl NetworkFunction for Probe {
    fn nf_type(&self) -> &'static str {
        self.nf.nf_type()
    }

    fn process_packet(&mut self, pkt: &Packet) -> Result<(), NfFault> {
        let p = &self.probes;
        let t0 = p.traced.then(Instant::now);
        let r = self.nf.process_packet(pkt);
        let done = match t0 {
            Some(t0) => p.process.add(t0, 1),
            None => Instant::now(),
        };
        if let Some(s) = p.stamps.get(pkt.uid as usize) {
            s.store((done - p.base).as_nanos() as u64, Relaxed);
        }
        r
    }

    fn drain_logs(&mut self) -> Vec<LogRecord> {
        self.nf.drain_logs()
    }

    fn list_perflow(&self, filter: &Filter) -> Vec<FlowId> {
        self.nf.list_perflow(filter)
    }

    fn get_perflow(&mut self, filter: &Filter) -> Vec<Chunk> {
        if !self.probes.traced {
            return self.nf.get_perflow(filter);
        }
        let t0 = Instant::now();
        let chunks = self.nf.get_perflow(filter);
        self.probes.get.add(t0, chunks.len());
        let mut batch = self
            .probes
            .batch
            .lock()
            .expect("no probe panics while holding the batch");
        let room = CAPTURE_CHUNKS - batch.len();
        batch.extend(chunks.iter().take(room).cloned());
        chunks
    }

    fn put_perflow(&mut self, chunks: Vec<Chunk>) -> Result<(), StateError> {
        if !self.probes.traced {
            return self.nf.put_perflow(chunks);
        }
        let (t0, n) = (Instant::now(), chunks.len());
        let r = self.nf.put_perflow(chunks);
        self.probes.put.add(t0, n);
        r
    }

    fn del_perflow(&mut self, flow_ids: &[FlowId]) {
        // Empty deletes are the runtime's quiesce barrier, not NF work.
        if !self.probes.traced || flow_ids.is_empty() {
            return self.nf.del_perflow(flow_ids);
        }
        let t0 = Instant::now();
        self.nf.del_perflow(flow_ids);
        self.probes.del.add(t0, flow_ids.len());
    }

    fn list_multiflow(&self, filter: &Filter) -> Vec<FlowId> {
        self.nf.list_multiflow(filter)
    }

    fn get_multiflow(&mut self, filter: &Filter) -> Vec<Chunk> {
        self.nf.get_multiflow(filter)
    }

    fn put_multiflow(&mut self, chunks: Vec<Chunk>) -> Result<(), StateError> {
        self.nf.put_multiflow(chunks)
    }

    fn del_multiflow(&mut self, flow_ids: &[FlowId]) {
        self.nf.del_multiflow(flow_ids)
    }

    fn get_allflows(&mut self) -> Vec<Chunk> {
        self.nf.get_allflows()
    }

    fn put_allflows(&mut self, chunks: Vec<Chunk>) -> Result<(), StateError> {
        self.nf.put_allflows(chunks)
    }

    fn cost_model(&self) -> opennf_nf::CostModel {
        self.nf.cost_model()
    }
}
