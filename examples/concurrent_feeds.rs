//! Many point-of-sale terminals, one rule base: the concurrent version
//! of the `retail_feed` scenario. Four producer threads stream basket
//! batches into a [`MaintainerService`] while a dashboard thread reads
//! snapshots (one `Arc` clone under a read lock, never blocked by a
//! round in progress); the background committer folds the stream into
//! FUP rounds whenever 5 000 staged baskets accumulate, and a final
//! flush drains the tail.
//!
//! ```sh
//! cargo run --release --example concurrent_feeds
//! ```

use fup::datagen::{generate_multi_split, GenParams};
use fup::{CommitPolicy, Maintainer, MaintainerService, MinConfidence, MinSupport, UpdateBatch};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn main() {
    let feeds = 4usize;
    let batches_per_feed = 12usize;
    let params = GenParams {
        num_transactions: 20_000,
        increment_size: 0,
        seed: 0xfeed5,
        ..GenParams::default()
    };
    let (history, batches) = generate_multi_split(&params, &vec![500; feeds * batches_per_feed]);

    println!("bootstrap: mining {} historical baskets...", history.len());
    let t0 = Instant::now();
    let maintainer = Maintainer::builder()
        .min_support(MinSupport::percent(1))
        .min_confidence(MinConfidence::percent(60))
        .build(history.into_transactions())
        .expect("valid session configuration");
    println!(
        "  {} rules in {:?}; launching the service\n",
        maintainer.rules().len(),
        t0.elapsed()
    );

    let service = MaintainerService::launch(
        maintainer,
        CommitPolicy::manual()
            .every_ops(5_000)
            .with_poll_interval(Duration::from_millis(2)),
    )
    .expect("valid commit policy");

    let batches: Vec<_> = batches
        .into_iter()
        .map(|db| db.into_transactions())
        .collect();
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        // The dashboard: reads never block, version only moves forward.
        let dashboard = scope.spawn({
            let (service, stop) = (&service, &stop);
            move || {
                let mut peak_rules = 0usize;
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = service.snapshot();
                    peak_rules = peak_rules.max(snap.rules().len());
                    reads += 1;
                    std::thread::sleep(Duration::from_micros(200));
                }
                (reads, peak_rules)
            }
        });

        // Four terminals feed their share of the stream concurrently.
        std::thread::scope(|producers| {
            for feed in 0..feeds {
                let (service, batches) = (&service, &batches);
                producers.spawn(move || {
                    for batch in batches.iter().skip(feed).step_by(feeds) {
                        service
                            .stage(UpdateBatch::insert_only(batch.clone()))
                            .expect("valid batch");
                    }
                });
            }
        });
        let report = service.flush().expect("final flush");
        stop.store(true, Ordering::Relaxed);
        let (reads, peak_rules) = dashboard.join().expect("dashboard thread");

        println!(
            "streamed {} baskets from {feeds} feeds in {:?} (final version {}, {} rules)",
            feeds * batches_per_feed * 500,
            t0.elapsed(),
            report.version,
            peak_rules,
        );
        println!("dashboard took {reads} snapshots meanwhile");
    });

    let (maintainer, metrics) = service.shutdown();
    println!(
        "\nservice counters: {} batches staged ({} baskets), {} rounds committed, \
         {} ms committing total ({} ms last), index {} build(s) / {} extend(s)",
        metrics.staged_batches,
        metrics.staged_inserts,
        metrics.committed_rounds,
        metrics.total_commit_micros / 1_000,
        metrics.last_commit_micros / 1_000,
        metrics.index_builds,
        metrics.index_extends,
    );
    maintainer
        .verify_consistency()
        .expect("maintained rules == re-mine");
    println!(
        "final state verified against a from-scratch re-mine: {} baskets, {} rules",
        maintainer.len(),
        maintainer.rules().len()
    );
}
