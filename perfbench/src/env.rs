//! The environment recorded with every result.

use lrm_bench::json::Json;

/// Cache size as the kernel reports it (`/sys/.../cache/indexN/size`,
/// e.g. `2048K`), for the cache level whose `level` file reads `level`.
fn cache_size(level: u32) -> String {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    (0..8)
        .find_map(|i| {
            let dir = format!("{base}/index{i}");
            let lvl = std::fs::read_to_string(format!("{dir}/level")).ok()?;
            let kind = std::fs::read_to_string(format!("{dir}/type")).ok()?;
            (lvl.trim() == level.to_string() && kind.trim() != "Instruction")
                .then(|| std::fs::read_to_string(format!("{dir}/size")).ok())
                .flatten()
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Environment of one run: machine (`nproc` as counted before the run
/// pinned itself to one core), toolchain, revision, inputs.
pub fn record(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    nproc: usize,
    fields: &[(String, usize)],
) -> Json {
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), Json::Num(seed as f64)),
        ("seconds".into(), Json::Num(seconds)),
        ("trace".into(), Json::Bool(trace)),
        ("nproc".into(), Json::Num(nproc as f64)),
        ("l2".into(), Json::Str(cache_size(2))),
        ("l3".into(), Json::Str(cache_size(3))),
        ("rustc".into(), Json::Str(env!("PERFBENCH_RUSTC").into())),
        ("commit".into(), Json::Str(env!("PERFBENCH_COMMIT").into())),
        (
            "field_bytes".into(),
            Json::Obj(
                fields
                    .iter()
                    .map(|(name, bytes)| (name.clone(), Json::Num(*bytes as f64)))
                    .collect(),
            ),
        ),
    ])
}
