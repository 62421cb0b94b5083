//! The synthetic contract generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use tinyevm_evm::asm::assemble;
use tinyevm_evm::Opcode;

/// Broad constructor workload classes, mixed in proportions that give the
/// corpus the paper's deployment-time profile: most contracts are cheap to
/// deploy, a minority do heavy storage initialisation, and a small tail
/// performs enough hashing / computation in the constructor to take seconds
/// (the Figure 4 outliers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadClass {
    /// Almost-empty constructor (tokens deployed behind proxies, stubs).
    Light,
    /// Ordinary compiler output: moderate memory setup and a few hashes.
    Typical,
    /// Constructors that initialise many storage slots.
    StorageHeavy,
    /// Constructors that hash or compute heavily (the multi-second tail).
    CryptoHeavy,
    /// Deliberately broken bytecode — truncated `PUSH` immediates and
    /// dynamically-computed jump targets — so the corpus exercises the
    /// analyzer's `Rejected` and `Unproven` verdicts, not just `Accepted`.
    Malformed,
}

impl WorkloadClass {
    /// All classes, in sampling order.
    pub const ALL: [WorkloadClass; 5] = [
        WorkloadClass::Light,
        WorkloadClass::Typical,
        WorkloadClass::StorageHeavy,
        WorkloadClass::CryptoHeavy,
        WorkloadClass::Malformed,
    ];
}

/// One generated contract.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyntheticContract {
    /// Index within the corpus.
    pub id: usize,
    /// The full init code (constructor + embedded runtime), the bytes that
    /// would be shipped to the device.
    pub init_code: Vec<u8>,
    /// Size of the embedded runtime code in bytes.
    pub runtime_size: usize,
    /// The constructor workload class this contract was drawn from.
    pub class: WorkloadClass,
}

impl SyntheticContract {
    /// Total bytecode size shipped to the device.
    pub fn size(&self) -> usize {
        self.init_code.len()
    }
}

/// Corpus generation parameters.
///
/// # Example
///
/// ```
/// use tinyevm_corpus::CorpusConfig;
///
/// let corpus = CorpusConfig { count: 25, ..CorpusConfig::paper_scale() }.generate();
/// assert_eq!(corpus.len(), 25);
/// assert!(corpus.iter().all(|c| c.size() >= 28));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusConfig {
    /// Number of contracts to generate.
    pub count: usize,
    /// RNG seed, so corpora are reproducible.
    pub seed: u64,
    /// Log-space mean of the size distribution.
    pub size_log_mean: f64,
    /// Log-space standard deviation of the size distribution.
    pub size_log_sigma: f64,
    /// Smallest generated bytecode size.
    pub min_size: usize,
    /// Largest generated bytecode size.
    pub max_size: usize,
    /// Sampling weights of the five workload classes, in
    /// [`WorkloadClass::ALL`] order. They need not sum to one.
    pub class_weights: [f64; 5],
}

impl CorpusConfig {
    /// The calibration used for the paper-scale experiments: 7,000 contracts
    /// whose size distribution targets Table II (mean ≈ 4 KB, σ ≈ 2.9 KB,
    /// min 28 B, max 25 KB).
    pub fn paper_scale() -> Self {
        CorpusConfig {
            count: 7_000,
            seed: 0x7157_EE43,
            size_log_mean: 8.05,
            size_log_sigma: 0.70,
            min_size: 28,
            max_size: 25_600,
            class_weights: [0.15, 0.70, 0.13, 0.02, 0.02],
        }
    }

    /// Generates the corpus.
    pub fn generate(&self) -> Vec<SyntheticContract> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.count)
            .map(|id| self.generate_one(id, &mut rng))
            .collect()
    }

    fn generate_one(&self, id: usize, rng: &mut StdRng) -> SyntheticContract {
        let total_size = self.sample_size(rng);
        let class = self.sample_class(rng);

        // Very small contracts are just a stub runtime behind the standard
        // deployment tail — there is no room for a working constructor
        // (and no room to corrupt one, so the stub path wins over Malformed).
        if total_size < 320 {
            let runtime_size = total_size.saturating_sub(TAIL_LEN).max(1);
            let runtime = random_runtime(rng, runtime_size);
            let init_code = append_deploy_tail(Vec::new(), &runtime);
            return SyntheticContract {
                id,
                runtime_size: runtime.len(),
                init_code,
                class: WorkloadClass::Light,
            };
        }

        if class == WorkloadClass::Malformed {
            return generate_malformed(id, rng, total_size);
        }

        let work = ConstructorWork::sample(class, rng);
        let constructor = work.assemble();
        let runtime_size = total_size
            .saturating_sub(constructor.len() + TAIL_LEN)
            .max(16);
        let runtime = random_runtime(rng, runtime_size);
        let init_code = append_deploy_tail(constructor, &runtime);
        SyntheticContract {
            id,
            runtime_size: runtime.len(),
            init_code,
            class,
        }
    }

    fn sample_size(&self, rng: &mut StdRng) -> usize {
        // Box-Muller normal variate -> log-normal size.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let size = (self.size_log_mean + self.size_log_sigma * z).exp();
        (size as usize).clamp(self.min_size, self.max_size)
    }

    fn sample_class(&self, rng: &mut StdRng) -> WorkloadClass {
        let total: f64 = self.class_weights.iter().sum();
        let mut pick = rng.gen_range(0.0..total);
        for (class, weight) in WorkloadClass::ALL.iter().zip(self.class_weights) {
            if pick < weight {
                return *class;
            }
            pick -= weight;
        }
        WorkloadClass::Typical
    }
}

/// Length of the `PUSH2 len DUP1 PUSH2 offset PUSH1 0 CODECOPY PUSH1 0
/// RETURN` deployment tail.
const TAIL_LEN: usize = 13;

/// Parameters of one constructor's work.
#[derive(Debug, Clone, Copy)]
struct ConstructorWork {
    /// Iterations of the memory-initialisation loop.
    memory_loop: u32,
    /// Iterations of the hashing loop (one Keccak-256 per iteration).
    keccak_loop: u32,
    /// Number of storage slots initialised.
    storage_slots: u32,
    /// Depth of the arithmetic expression evaluated on the stack.
    expression_depth: u32,
}

impl ConstructorWork {
    fn sample(class: WorkloadClass, rng: &mut StdRng) -> Self {
        match class {
            WorkloadClass::Light => ConstructorWork {
                memory_loop: rng.gen_range(50..500),
                keccak_loop: rng.gen_range(0..3),
                storage_slots: rng.gen_range(1..4),
                expression_depth: rng.gen_range(3..9),
            },
            WorkloadClass::Typical => ConstructorWork {
                memory_loop: rng.gen_range(400..4_200),
                keccak_loop: rng.gen_range(1..28),
                storage_slots: rng.gen_range(2..11),
                expression_depth: rng.gen_range(3..17),
            },
            WorkloadClass::StorageHeavy => ConstructorWork {
                memory_loop: rng.gen_range(800..5_000),
                keccak_loop: rng.gen_range(4..31),
                storage_slots: rng.gen_range(10..29),
                expression_depth: rng.gen_range(5..21),
            },
            WorkloadClass::CryptoHeavy => ConstructorWork {
                memory_loop: rng.gen_range(10_000..90_000),
                keccak_loop: rng.gen_range(40..500),
                storage_slots: rng.gen_range(2..11),
                expression_depth: rng.gen_range(16..42),
            },
            WorkloadClass::Malformed => {
                unreachable!("malformed contracts are generated without a ConstructorWork")
            }
        }
    }

    /// Emits the constructor bytecode (without the deployment tail).
    fn assemble(&self) -> Vec<u8> {
        let mut source = String::with_capacity(1024);
        // solc-style prologue: free-memory pointer.
        source.push_str("PUSH1 0x80 PUSH1 0x40 MSTORE\n");

        // Expression of the configured depth: N pushes folded with ADD.
        for i in 0..self.expression_depth {
            source.push_str(&format!("PUSH1 0x{:02x} ", (i % 250) + 1));
        }
        for _ in 1..self.expression_depth {
            source.push_str("ADD ");
        }
        source.push_str("POP\n");

        // Memory-initialisation loop.
        source.push_str(&counted_loop(
            "memory",
            self.memory_loop,
            "DUP1 PUSH2 0x0200 MSTORE",
        ));
        // Hashing loop (ABI/array hashing in real constructors).
        if self.keccak_loop > 0 {
            source.push_str(&counted_loop(
                "keccak",
                self.keccak_loop,
                "PUSH1 0x40 PUSH1 0x00 SHA3 POP",
            ));
        }
        // Storage initialisation loop: slot i <- i.
        source.push_str(&counted_loop(
            "storage",
            self.storage_slots,
            "DUP1 DUP1 SSTORE",
        ));

        assemble(&source).expect("generated constructor assembles")
    }
}

/// Emits a counted loop running `count` iterations of `body` (which must be
/// stack-neutral). The loop keeps `[limit, i]` on the stack.
fn counted_loop(label: &str, count: u32, body: &str) -> String {
    format!(
        "PUSH3 0x{count:06x} PUSH1 0x00\n\
         @{label}: JUMPDEST\n\
         {body}\n\
         PUSH1 0x01 ADD DUP2 DUP2 LT PUSHLABEL @{label} JUMPI\n\
         POP POP\n"
    )
}

/// Appends the standard `CODECOPY` / `RETURN` deployment tail and the
/// runtime bytes to a constructor.
fn append_deploy_tail(mut constructor: Vec<u8>, runtime: &[u8]) -> Vec<u8> {
    let offset = constructor.len() + TAIL_LEN;
    let len = runtime.len();
    constructor.extend_from_slice(&[
        Opcode::Push2.to_byte(),
        (len >> 8) as u8,
        len as u8,
        Opcode::Dup1.to_byte(),
        Opcode::Push2.to_byte(),
        (offset >> 8) as u8,
        offset as u8,
        Opcode::Push1.to_byte(),
        0x00,
        Opcode::CodeCopy.to_byte(),
        Opcode::Push1.to_byte(),
        0x00,
        Opcode::Return.to_byte(),
    ]);
    constructor.extend_from_slice(runtime);
    constructor
}

/// Generates one contract of the [`WorkloadClass::Malformed`] family, drawn
/// from four sub-families. One ends in a `PUSH3` whose immediates run off
/// the end of the code (a certain defect: the analyzer rejects it with
/// `TruncatedPush` and the deploy gate refuses it). One routes control flow
/// through an arithmetically-computed jump target (`ADD` of two constants —
/// the symbolic pass folds it and the verdict is `Accepted` with a resolved
/// jump). One shuffles a pushed jump target through `SWAP`/`DUP`/`POP`
/// before consuming it (also resolved to `Accepted`; exercises the symbolic
/// stack permutation tracking). One branches over a `POP` on a genuinely
/// dynamic condition (`CALLDATASIZE`) so only the taken path reaches it
/// with an empty stack: no static engine can rule the underflow out, and
/// the verdict stays `Unproven(PossibleUnderflow)` — the deploy still
/// succeeds, because constructors run with empty calldata and fall through.
/// The unprovable sub-family is deliberately the rarest draw: most
/// real-world indirection is mechanically resolvable.
fn generate_malformed(id: usize, rng: &mut StdRng, total_size: usize) -> SyntheticContract {
    match rng.gen_range(0..8u8) {
        0 | 1 => {
            let init_code = truncated_push_code(rng, total_size);
            SyntheticContract {
                id,
                init_code,
                runtime_size: 0,
                class: WorkloadClass::Malformed,
            }
        }
        2 | 3 => {
            let (init_code, runtime_size) = dynamic_jump_code(rng, total_size);
            SyntheticContract {
                id,
                init_code,
                runtime_size,
                class: WorkloadClass::Malformed,
            }
        }
        4..=6 => {
            let (init_code, runtime_size) = shuffled_jump_code(rng, total_size);
            SyntheticContract {
                id,
                init_code,
                runtime_size,
                class: WorkloadClass::Malformed,
            }
        }
        _ => {
            let (init_code, runtime_size) = stack_underflow_code(rng, total_size);
            SyntheticContract {
                id,
                init_code,
                runtime_size,
                class: WorkloadClass::Malformed,
            }
        }
    }
}

/// Straight-line code whose trailing `PUSH3` is missing two immediate
/// bytes. Everything before the truncation is valid, so the analyzer's
/// reachability walk arrives at the defect.
fn truncated_push_code(rng: &mut StdRng, total_size: usize) -> Vec<u8> {
    let mut code = vec![
        Opcode::Push1.to_byte(),
        0x80,
        Opcode::Push1.to_byte(),
        0x40,
        Opcode::MStore.to_byte(),
    ];
    while code.len() + 5 <= total_size {
        code.extend_from_slice(&[Opcode::Push1.to_byte(), rng.gen(), Opcode::Pop.to_byte()]);
    }
    // JUMPDEST is a one-byte no-op: pad to the exact sampled size so the
    // malformed family respects the corpus size bounds.
    while code.len() + 2 < total_size {
        code.push(Opcode::JumpDest.to_byte());
    }
    code.push(Opcode::Push3.to_byte());
    code.push(rng.gen());
    code
}

/// A constructor whose first jump computes its target with `ADD` instead of
/// taking it from an immediately-preceding `PUSH`. Execution lands on the
/// `JUMPDEST` and deploys a benign-filler runtime. The symbolic pass folds
/// `5 + 1` to the constant destination, so the verdict is `Accepted` with a
/// resolved jump (before the symbolic engine this family drew
/// `Unproven(DynamicJump)`). The runtime deliberately contains no
/// `JUMPDEST` bytes, so the family keeps measuring the resolver rather than
/// accidental reachability of random filler.
fn dynamic_jump_code(rng: &mut StdRng, total_size: usize) -> (Vec<u8>, usize) {
    // 0: PUSH1 5  2: PUSH1 1  4: ADD  5: JUMP  6: JUMPDEST
    let constructor = vec![
        Opcode::Push1.to_byte(),
        0x05,
        Opcode::Push1.to_byte(),
        0x01,
        Opcode::Add.to_byte(),
        Opcode::Jump.to_byte(),
        Opcode::JumpDest.to_byte(),
    ];
    let runtime_size = total_size
        .saturating_sub(constructor.len() + TAIL_LEN)
        .clamp(1, u16::MAX as usize);
    let runtime = benign_filler(rng, runtime_size);
    (append_deploy_tail(constructor, &runtime), runtime_size)
}

/// A constructor that pushes its jump destination early and then shuffles
/// it through `SWAP1`/`DUP1`/`POP` before the `JUMP` consumes it. No
/// `PUSH` immediately precedes the jump, so the old syntactic pass saw a
/// dynamic jump; the symbolic stack tracks the constant through the
/// permutation and resolves it, so the verdict is `Accepted` with a
/// resolved jump and a `Bounded` gas certificate.
fn shuffled_jump_code(rng: &mut StdRng, total_size: usize) -> (Vec<u8>, usize) {
    // 0: PUSH1 8  2: PUSH1 x  4: SWAP1  5: DUP1  6: POP  7: JUMP
    // 8: JUMPDEST  9: POP
    let constructor = vec![
        Opcode::Push1.to_byte(),
        0x08,
        Opcode::Push1.to_byte(),
        rng.gen(),
        Opcode::Swap1.to_byte(),
        Opcode::Dup1.to_byte(),
        Opcode::Pop.to_byte(),
        Opcode::Jump.to_byte(),
        Opcode::JumpDest.to_byte(),
        Opcode::Pop.to_byte(),
    ];
    let runtime_size = total_size
        .saturating_sub(constructor.len() + TAIL_LEN)
        .clamp(1, u16::MAX as usize);
    let runtime = benign_filler(rng, runtime_size);
    (append_deploy_tail(constructor, &runtime), runtime_size)
}

/// A constructor whose `JUMPI` skips the `PUSH1` that feeds a later `POP`:
/// the fall-through path supplies the operand, the taken path reaches the
/// `POP` with an empty stack. The condition is `CALLDATASIZE` — genuinely
/// unknowable statically — so even the symbolic engine reports
/// `Unproven(PossibleUnderflow)`. The deploy still succeeds: constructors
/// run with empty calldata, the condition is 0, and execution falls through
/// past the `PUSH1` that feeds the `POP`. Both jump targets are
/// `PUSH`-immediate, so this family exercises the path-sensitive stack
/// dataflow rather than the jump resolver.
fn stack_underflow_code(rng: &mut StdRng, total_size: usize) -> (Vec<u8>, usize) {
    // 0: CALLDATASIZE  1: PUSH1 6  3: JUMPI  4: PUSH1 1  6: JUMPDEST  7: POP
    let constructor = vec![
        Opcode::CallDataSize.to_byte(),
        Opcode::Push1.to_byte(),
        0x06,
        Opcode::JumpI.to_byte(),
        Opcode::Push1.to_byte(),
        0x01,
        Opcode::JumpDest.to_byte(),
        Opcode::Pop.to_byte(),
    ];
    let runtime_size = total_size
        .saturating_sub(constructor.len() + TAIL_LEN)
        .clamp(1, u16::MAX as usize);
    let runtime = benign_filler(rng, runtime_size);
    (append_deploy_tail(constructor, &runtime), runtime_size)
}

/// Filler of exactly `size` bytes made only of `PUSH1 x POP` triples and
/// `STOP`: valid everywhere, no jumpdests, safe even when the analyzer
/// over-approximates reachability.
fn benign_filler(rng: &mut StdRng, size: usize) -> Vec<u8> {
    let mut code = Vec::with_capacity(size);
    while code.len() + 3 <= size {
        code.extend_from_slice(&[Opcode::Push1.to_byte(), rng.gen(), Opcode::Pop.to_byte()]);
    }
    while code.len() < size {
        code.push(Opcode::Stop.to_byte());
    }
    code
}

/// Generates plausible-looking (never executed) runtime code of exactly
/// `size` bytes: a dispatcher-like prefix followed by a random but valid
/// opcode stream.
fn random_runtime(rng: &mut StdRng, size: usize) -> Vec<u8> {
    const COMMON_OPCODES: &[u8] = &[
        0x60, 0x61, 0x52, 0x51, 0x54, 0x55, 0x01, 0x03, 0x10, 0x14, 0x15, 0x16, 0x35, 0x36, 0x56,
        0x57, 0x5b, 0x80, 0x81, 0x90, 0x91, 0xf3, 0x50, 0x33, 0x34, 0xa1, 0x20,
    ];
    let mut code = Vec::with_capacity(size);
    // A recognisable solc-style prefix when there is room.
    let prefix: [u8; 7] = [0x60, 0x80, 0x60, 0x40, 0x52, 0x34, 0x15];
    if size > prefix.len() + 2 {
        code.extend_from_slice(&prefix);
    }
    while code.len() < size {
        let byte = COMMON_OPCODES[rng.gen_range(0..COMMON_OPCODES.len())];
        code.push(byte);
        if (0x60..=0x7f).contains(&byte) {
            let immediates = (byte - 0x5f) as usize;
            for _ in 0..immediates {
                if code.len() < size {
                    code.push(rng.gen());
                }
            }
        }
    }
    code.truncate(size);
    if let Some(last) = code.last_mut() {
        *last = 0x00; // STOP, keeps the tail tidy
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyevm_evm::{deploy, EvmConfig};

    #[test]
    fn corpus_is_reproducible_per_seed() {
        let a = CorpusConfig {
            count: 50,
            ..CorpusConfig::paper_scale()
        }
        .generate();
        let b = CorpusConfig {
            count: 50,
            ..CorpusConfig::paper_scale()
        }
        .generate();
        assert_eq!(a, b);
        let c = CorpusConfig {
            count: 50,
            seed: 99,
            ..CorpusConfig::paper_scale()
        }
        .generate();
        assert_ne!(a, c);
    }

    /// FNV-1a over every contract's id, class, runtime size and init code.
    fn corpus_hash(corpus: &[SyntheticContract]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &byte in bytes {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for contract in corpus {
            eat(&(contract.id as u64).to_le_bytes());
            eat(format!("{:?}", contract.class).as_bytes());
            eat(&(contract.runtime_size as u64).to_le_bytes());
            eat(&(contract.init_code.len() as u64).to_le_bytes());
            eat(&contract.init_code);
        }
        hash
    }

    #[test]
    fn the_paper_scale_corpus_is_pinned() {
        // A change to how the RNG draws or how a contract is generated
        // changes every experiment over the corpus; this hash moves first.
        let corpus = CorpusConfig::paper_scale().generate();
        assert_eq!(corpus.len(), 7_000);
        assert_eq!(corpus_hash(&corpus), 0xfd4d_0805_73c0_4fc1);
    }

    #[test]
    fn sizes_respect_the_configured_bounds() {
        let corpus = CorpusConfig {
            count: 300,
            ..CorpusConfig::paper_scale()
        }
        .generate();
        assert!(corpus.iter().all(|c| c.size() >= 28 && c.size() <= 25_600));
        assert!(corpus.iter().all(|c| c.runtime_size < c.size()));
        // Sizes actually vary (not a constant generator).
        let min = corpus.iter().map(|c| c.size()).min().unwrap();
        let max = corpus.iter().map(|c| c.size()).max().unwrap();
        assert!(max > min * 4);
    }

    #[test]
    fn all_classes_appear_in_a_large_sample() {
        let corpus = CorpusConfig {
            count: 600,
            ..CorpusConfig::paper_scale()
        }
        .generate();
        for class in WorkloadClass::ALL {
            assert!(
                corpus.iter().any(|c| c.class == class),
                "class {class:?} missing"
            );
        }
        // Typical dominates.
        let typical = corpus
            .iter()
            .filter(|c| c.class == WorkloadClass::Typical)
            .count();
        assert!(typical * 2 > corpus.len());
    }

    #[test]
    fn generated_constructors_deploy_on_the_device_profile() {
        // Use light/typical work only (small count keeps the test fast) and
        // check that the constructors actually execute and return the
        // embedded runtime byte-for-byte.
        let corpus = CorpusConfig {
            count: 12,
            max_size: 6_000,
            class_weights: [0.3, 0.7, 0.0, 0.0, 0.0],
            ..CorpusConfig::paper_scale()
        }
        .generate();
        let config = EvmConfig::cc2538();
        for contract in &corpus {
            let result = deploy(&config, &contract.init_code)
                .unwrap_or_else(|e| panic!("contract {} failed: {e}", contract.id));
            assert_eq!(result.runtime_code.len(), contract.runtime_size);
            assert_eq!(
                &contract.init_code[contract.init_code.len() - contract.runtime_size..],
                result.runtime_code.as_slice()
            );
        }
    }

    #[test]
    fn crypto_heavy_constructors_do_more_work_than_light_ones() {
        let mut rng = StdRng::seed_from_u64(7);
        let light = ConstructorWork::sample(WorkloadClass::Light, &mut rng);
        let heavy = ConstructorWork::sample(WorkloadClass::CryptoHeavy, &mut rng);
        assert!(heavy.memory_loop > light.memory_loop * 10);
        assert!(heavy.keccak_loop > light.keccak_loop);
        assert!(heavy.expression_depth >= 16);
    }

    #[test]
    fn expression_depth_drives_the_stack_high_water_mark() {
        let work = ConstructorWork {
            memory_loop: 5,
            keccak_loop: 1,
            storage_slots: 2,
            expression_depth: 23,
        };
        let constructor = work.assemble();
        let init = append_deploy_tail(constructor, &[0x00u8; 64]);
        let result = deploy(&EvmConfig::cc2538(), &init).unwrap();
        assert!(result.metrics.max_stack_pointer >= 23);
        assert!(result.metrics.max_stack_pointer <= 26);
    }

    #[test]
    fn runtime_filler_has_exact_size_and_valid_structure() {
        let mut rng = StdRng::seed_from_u64(3);
        for size in [1usize, 16, 100, 1000, 5000] {
            let runtime = random_runtime(&mut rng, size);
            assert_eq!(runtime.len(), size);
            assert_eq!(*runtime.last().unwrap(), 0x00);
        }
    }

    #[test]
    fn malformed_contracts_draw_rejected_and_unproven_verdicts() {
        use tinyevm_analysis::{analyze, AnalysisError, UnprovenReason, Verdict};
        let corpus = CorpusConfig {
            count: 400,
            class_weights: [0.0, 0.0, 0.0, 0.0, 1.0],
            ..CorpusConfig::paper_scale()
        }
        .generate();
        assert!(corpus
            .iter()
            .all(|c| c.class == WorkloadClass::Malformed || c.size() < 320));
        let mut truncated = 0usize;
        let mut resolved = 0usize;
        let mut underflow = 0usize;
        for contract in corpus
            .iter()
            .filter(|c| c.class == WorkloadClass::Malformed)
        {
            let analysis = analyze(&contract.init_code);
            match analysis.verdict() {
                Verdict::Rejected(AnalysisError::TruncatedPush { .. }) => truncated += 1,
                // The folded-ADD and shuffled-stack sub-families are now
                // resolved by the symbolic pass: Accepted, with the jump's
                // constant destination on record.
                Verdict::Accepted => {
                    assert!(
                        !analysis.resolved_jumps().is_empty(),
                        "accepted malformed contract {} without a resolved jump",
                        contract.id
                    );
                    resolved += 1;
                }
                Verdict::Unproven(UnprovenReason::PossibleUnderflow { .. }) => underflow += 1,
                other => panic!(
                    "malformed contract {} got unexpected verdict {other:?}",
                    contract.id
                ),
            }
        }
        // All sub-families appear in a sample this large.
        assert!(truncated > 25, "only {truncated} truncated-push contracts");
        assert!(resolved > 50, "only {resolved} resolved-jump contracts");
        assert!(
            underflow > 5,
            "only {underflow} possible-underflow contracts"
        );
    }

    #[test]
    fn dynamic_jump_contracts_resolve_and_deploy() {
        use tinyevm_analysis::{analyze, Verdict};
        let mut rng = StdRng::seed_from_u64(11);
        let config = EvmConfig::cc2538();
        for _ in 0..8 {
            let (init, runtime_size) = dynamic_jump_code(&mut rng, 600);
            // The symbolic pass folds 5 + 1 and resolves the jump to the
            // JUMPDEST at pc 6.
            let analysis = analyze(&init);
            assert_eq!(*analysis.verdict(), Verdict::Accepted);
            assert_eq!(analysis.resolved_jumps(), &[(5, 6)]);
            let result = deploy(&config, &init).expect("dynamic-jump contract deploys");
            assert_eq!(result.runtime_code.len(), runtime_size);
        }
    }

    #[test]
    fn shuffled_jump_contracts_resolve_and_deploy() {
        use tinyevm_analysis::{analyze, Verdict};
        let mut rng = StdRng::seed_from_u64(17);
        let config = EvmConfig::cc2538();
        for _ in 0..8 {
            let (init, runtime_size) = shuffled_jump_code(&mut rng, 600);
            // The destination is pushed at pc 0 and survives SWAP/DUP/POP
            // to the JUMP at pc 7 — resolved to the JUMPDEST at pc 8.
            let analysis = analyze(&init);
            assert_eq!(*analysis.verdict(), Verdict::Accepted);
            assert_eq!(analysis.resolved_jumps(), &[(7, 8)]);
            assert!(analysis.gas_certificate().is_bounded());
            let result = deploy(&config, &init).expect("shuffled-jump contract deploys");
            assert_eq!(result.runtime_code.len(), runtime_size);
        }
    }

    #[test]
    fn possible_underflow_contracts_still_deploy() {
        use tinyevm_analysis::{analyze, UnprovenReason, Verdict};
        let mut rng = StdRng::seed_from_u64(13);
        let config = EvmConfig::cc2538();
        for _ in 0..8 {
            let (init, runtime_size) = stack_underflow_code(&mut rng, 600);
            assert!(matches!(
                analyze(&init).verdict(),
                Verdict::Unproven(UnprovenReason::PossibleUnderflow { .. })
            ));
            let result = deploy(&config, &init).expect("possible-underflow contract deploys");
            assert_eq!(result.runtime_code.len(), runtime_size);
        }
    }

    #[test]
    fn malformed_sizes_respect_the_configured_bounds() {
        let corpus = CorpusConfig {
            count: 200,
            class_weights: [0.0, 0.0, 0.0, 0.0, 1.0],
            ..CorpusConfig::paper_scale()
        }
        .generate();
        assert!(corpus.iter().all(|c| c.size() >= 28 && c.size() <= 25_600));
        assert!(corpus.iter().all(|c| c.runtime_size < c.size()));
    }

    #[test]
    fn tiny_contracts_use_the_stub_path() {
        let corpus = CorpusConfig {
            count: 200,
            size_log_mean: 4.0, // tiny sizes
            size_log_sigma: 0.4,
            ..CorpusConfig::paper_scale()
        }
        .generate();
        assert!(corpus.iter().all(|c| c.class == WorkloadClass::Light));
        // They still deploy.
        let config = EvmConfig::cc2538();
        let deployed = corpus
            .iter()
            .filter(|c| deploy(&config, &c.init_code).is_ok())
            .count();
        assert_eq!(deployed, corpus.len());
    }
}
