//! Interpreter fast path: per-opcode accounting (through `Evm::execute`,
//! which decodes blocks lazily) versus per-basic-block batched gas and
//! instruction-limit checks, on lazily decoded blocks (`Evm::execute`, what
//! a deploy runs) and on a cached analysis (`execute_analyzed`). All three
//! lanes run the same hot-loop contract and produce byte-identical results,
//! gas and metrics; only the bookkeeping strategy differs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tinyevm_analysis::analyze;
use tinyevm_evm::storage::SideChainStorage;
use tinyevm_evm::{asm, CallContext, Evm, EvmConfig, NullHost, NullIotEnvironment};

/// A tight counting loop dominated by cheap stack/arithmetic opcodes, where
/// per-opcode accounting overhead is a large fraction of dispatch cost.
fn hot_loop(iterations: u32) -> Vec<u8> {
    let source = format!(
        "PUSH3 0x{iterations:06x} PUSH1 0x00
         @loop: JUMPDEST
         DUP1 DUP1 ADD POP
         PUSH1 0x01 ADD DUP2 DUP2 LT PUSHLABEL @loop JUMPI
         POP POP STOP"
    );
    asm::assemble(&source).unwrap()
}

fn run_per_op(code: &[u8]) -> tinyevm_evm::ExecResult {
    Evm::new(EvmConfig::cc2538().with_per_op_metering(true))
        .execute(code, &[])
        .unwrap()
}

fn run_batched_lazy(code: &[u8]) -> tinyevm_evm::ExecResult {
    Evm::new(EvmConfig::cc2538()).execute(code, &[]).unwrap()
}

fn run_batched_cached(
    code: &[u8],
    analysis: &tinyevm_analysis::CodeAnalysis,
) -> tinyevm_evm::ExecResult {
    let config = EvmConfig::cc2538();
    let mut storage = SideChainStorage::new(config.max_storage_bytes);
    let mut host = NullHost::new();
    let depth = config.max_call_depth;
    Evm::new(config)
        .execute_analyzed(
            code,
            analysis,
            CallContext::default(),
            &mut storage,
            &mut host,
            &mut NullIotEnvironment,
            false,
            depth,
        )
        .unwrap()
}

fn bench_fast_path(c: &mut Criterion) {
    let code = hot_loop(10_000);
    let analysis = analyze(&code);
    assert!(analysis.verdict().is_accepted());

    // The lanes must be observationally identical before we time them.
    let slow = run_per_op(&code);
    for fast in [
        run_batched_lazy(&code),
        run_batched_cached(&code, &analysis),
    ] {
        assert_eq!(slow.outcome, fast.outcome);
        assert_eq!(slow.metrics, fast.metrics);
    }

    let mut group = c.benchmark_group("evm_fast_path");
    group.sample_size(20);
    group.bench_function("hot_loop_10000_per_op", |bencher| {
        bencher.iter(|| run_per_op(black_box(&code)))
    });
    group.bench_function("hot_loop_10000_batched_lazy", |bencher| {
        bencher.iter(|| run_batched_lazy(black_box(&code)))
    });
    group.bench_function("hot_loop_10000_batched_cached", |bencher| {
        bencher.iter(|| run_batched_cached(black_box(&code), &analysis))
    });
    group.finish();
}

criterion_group!(benches, bench_fast_path);
criterion_main!(benches);
