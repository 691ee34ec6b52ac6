//! A hub node serving the paper-size model (`NvConfig::paper()`, 340-dim
//! code vectors, 64×64 policy).
//!
//! `nvc hub` hard-codes `NvConfig::fast()`, so the cold workload's model
//! — the one whose kernels run at the paper's shapes — cannot be started
//! from the CLI. This is the same `Hub` + `serve_tcp` library path with
//! that one difference; everything else stays at shipped defaults.

use std::io::Read;
use std::sync::Arc;

use neurovectorizer::{ContentStore, Hub, ModelSpec, NeuroVectorizer, NvConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (listen, seed) = match args.as_slice() {
        [l, addr, s, seed] if l == "--listen" && s == "--seed" => (addr.clone(), seed.parse()?),
        _ => return Err("usage: paper_node --listen ADDR --seed N".into()),
    };
    let mut cfg = NvConfig::paper().with_seed(seed);
    // Same rule as `nvc hub`: serve with the fast kernels unless the
    // environment asks otherwise.
    if std::env::var_os("NVC_KERNEL_MODE").is_none() {
        cfg.kernel_mode = nvc_nn::KernelMode::Fast;
    }
    cfg.hub.listen = listen;
    let hub = Hub::new(cfg.hub.clone(), cfg.serve.clone())
        .with_shared_store(Arc::new(ContentStore::default()));
    let nv = NeuroVectorizer::new(cfg.clone());
    let hash = nv.checkpoint_hash();
    hub.register(ModelSpec {
        name: "prod".to_string(),
        weight: 1,
        checkpoint_hash: hash,
        model: Arc::new(nv),
    })?;
    let handle = nvc_hub::server::serve_tcp(Arc::new(hub))?;
    eprintln!(
        "paper_node: listening on {} (checkpoint {hash:016x}, {} kernels)",
        handle.addr(),
        cfg.kernel_mode
    );
    // Supervisor exit (stdin EOF) shuts the node down, like `nvc hub`.
    let on_eof = Arc::clone(handle.hub());
    std::thread::spawn(move || {
        let mut sink = [0u8; 256];
        while matches!(std::io::stdin().read(&mut sink), Ok(n) if n > 0) {}
        on_eof.shutdown();
    });
    while !handle.hub().is_shutting_down() {
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
    handle.shutdown();
    Ok(())
}
