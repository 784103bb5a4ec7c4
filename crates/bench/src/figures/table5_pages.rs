//! Table 5: hot/warm pages used at 4 kB, 16 kB and 2 MB page sizes, plus
//! binary size — and the §4.9 mixed-page counts that motivate the
//! overlap-prevention mechanisms.

use trrip_analysis::TextTable;
use trrip_mem::PageSize;
use trrip_os::{Loader, OverlapPolicy};
use trrip_policies::PolicyKind;

use crate::Session;

fn human(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{:.1}M", bytes as f64 / (1 << 20) as f64)
    } else {
        format!("{}K", bytes >> 10)
    }
}

/// Prints Table 5 and writes `table5_pages.txt`.
pub fn run(session: &Session) -> Result<(), String> {
    let options = &session.options;
    let config = options.sim_config(PolicyKind::Trrip1);
    let specs = options.selected_proxies();
    let workloads = session.prepare(&specs, &config, config.classifier);

    let mut table = TextTable::new(vec![
        "benchmark",
        "4kB pages",
        "16kB pages",
        "2MB pages",
        "mixed(4k/16k/2M)",
        "binary size",
    ]);
    for w in workloads.iter() {
        let mut cells = vec![w.spec.name.clone()];
        let mut mixed = Vec::new();
        for size in PageSize::ALL {
            // FirstByte shows the raw hot/warm page counts per the paper's
            // "rounded up to the nearest full page" accounting.
            let image =
                Loader::new(size).with_overlap_policy(OverlapPolicy::FirstByte).load(&w.pgo_object);
            cells.push(format!("{}/{}", image.stats.hot, image.stats.warm));
            mixed.push(image.stats.mixed.to_string());
        }
        cells.push(mixed.join("/"));
        cells.push(human(w.pgo_object.binary_size));
        table.row(cells);
    }
    println!("Table 5: pages used (hot/warm) per page size and binary size");
    println!("{table}");
    println!(
        "paper shape: page counts scale down ~4x from 4kB to 16kB and collapse at 2MB;\n\
         larger pages mix temperatures more often (§4.9)"
    );
    options.write_report("table5_pages.txt", &format!("{table}\n{}", table.to_csv()));
    Ok(())
}
