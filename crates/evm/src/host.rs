//! The host interface: what a running contract can see of the world
//! outside its own frame.
//!
//! During *off-chain* execution on the IoT device there is no blockchain to
//! ask, but a contract may still call sibling contracts that were deployed
//! into the device's local side-chain (the factory template creating payment
//! channels is exactly that pattern), query balances that the device tracks
//! locally, and emit logs that become part of the side-chain record. The
//! [`Host`] trait captures those capabilities; [`ContractStore`] is the
//! in-memory implementation used both by the device runtime and by the
//! main-chain simulator.

use std::collections::BTreeMap;

use tinyevm_analysis::AnalysisCache;
use tinyevm_trace::TraceHandle;
use tinyevm_types::{Address, U256};

use crate::config::EvmConfig;
use crate::deploy::{deploy_gate, DeployStage};
use crate::interpreter::{CallContext, Evm, ExecOutcome};
use crate::iot::IotEnvironment;
use crate::metrics::ExecMetrics;
use crate::storage::{StorageBackend, WordStorage};

/// The kind of message call being made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// Ordinary `CALL`: callee runs with its own storage and address.
    Call,
    /// `DELEGATECALL` / `CALLCODE`: callee code runs in the caller's context.
    Delegate,
    /// `STATICCALL`: like `Call` but state changes are forbidden.
    Static,
}

/// A request from the interpreter to perform a nested call.
#[derive(Debug, Clone)]
pub struct CallRequest {
    /// What kind of call.
    pub kind: CallKind,
    /// The calling contract.
    pub caller: Address,
    /// The target address whose code runs.
    pub target: Address,
    /// The address whose storage / identity is used (differs from `target`
    /// for delegate calls).
    pub context_address: Address,
    /// Value transferred (zero for static and delegate calls).
    pub value: U256,
    /// Call data.
    pub input: Vec<u8>,
    /// Remaining call-depth budget (already decremented by the caller).
    pub depth_remaining: usize,
}

/// Result of a nested call or create.
#[derive(Debug, Clone)]
pub struct CallOutcome {
    /// True when the callee returned normally (not reverted / trapped).
    pub success: bool,
    /// Return or revert data.
    pub output: Vec<u8>,
    /// Metrics of the nested frame, absorbed into the caller's metrics.
    pub metrics: ExecMetrics,
    /// Address of the created contract (create operations only).
    pub created: Option<Address>,
}

impl CallOutcome {
    /// A failed outcome with no output.
    pub fn failure() -> Self {
        CallOutcome {
            success: false,
            output: Vec::new(),
            metrics: ExecMetrics::new(),
            created: None,
        }
    }
}

/// A log record emitted by `LOG0`..`LOG4`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Emitting contract.
    pub address: Address,
    /// Indexed topics (0 to 4).
    pub topics: Vec<U256>,
    /// Unindexed payload.
    pub data: Vec<u8>,
}

/// What a contract frame may ask of its environment.
pub trait Host {
    /// Balance of an account in the host's ledger.
    fn balance(&self, address: &Address) -> U256;

    /// Code of an account (empty if none).
    fn code(&self, address: &Address) -> Vec<u8>;

    /// Performs a nested message call.
    fn call(&mut self, request: CallRequest, iot: &mut dyn IotEnvironment) -> CallOutcome;

    /// Deploys a new contract from init code, returning the outcome with
    /// `created` set on success.
    fn create(
        &mut self,
        creator: Address,
        value: U256,
        init_code: &[u8],
        depth_remaining: usize,
        iot: &mut dyn IotEnvironment,
    ) -> CallOutcome;

    /// Records a log entry.
    fn emit_log(&mut self, entry: LogEntry);

    /// Records a self-destruct of `address` sending its balance to
    /// `beneficiary`.
    fn selfdestruct(&mut self, address: Address, beneficiary: Address);
}

/// A host with no accounts: balances are zero, there is no external code,
/// calls and creates fail. Stand-alone contract execution (the corpus
/// deployment experiment) uses this.
#[derive(Debug, Clone, Default)]
pub struct NullHost {
    logs: Vec<LogEntry>,
}

impl NullHost {
    /// Creates an empty null host.
    pub fn new() -> Self {
        Self::default()
    }

    /// Logs emitted so far.
    pub fn logs(&self) -> &[LogEntry] {
        &self.logs
    }
}

impl Host for NullHost {
    fn balance(&self, _address: &Address) -> U256 {
        U256::ZERO
    }

    fn code(&self, _address: &Address) -> Vec<u8> {
        Vec::new()
    }

    fn call(&mut self, _request: CallRequest, _iot: &mut dyn IotEnvironment) -> CallOutcome {
        CallOutcome::failure()
    }

    fn create(
        &mut self,
        _creator: Address,
        _value: U256,
        _init_code: &[u8],
        _depth_remaining: usize,
        _iot: &mut dyn IotEnvironment,
    ) -> CallOutcome {
        CallOutcome::failure()
    }

    fn emit_log(&mut self, entry: LogEntry) {
        self.logs.push(entry);
    }

    fn selfdestruct(&mut self, _address: Address, _beneficiary: Address) {}
}

/// Outcome of one nested frame run by [`ContractStore`].
struct FrameResult {
    success: bool,
    returned: bool,
    output: Vec<u8>,
    metrics: ExecMetrics,
}

/// One account in a [`ContractStore`].
#[derive(Debug, Clone, Default)]
struct AccountState {
    balance: U256,
    code: Vec<u8>,
    storage: WordStorage,
    destroyed: bool,
}

/// An in-memory world of accounts, code, balances and storage.
///
/// This is the substrate used both by the device (its local side-chain
/// contract registry: the template and the payment channels it spawns) and
/// by the main-chain simulator in `tinyevm-chain`. Nested calls recursively
/// run a fresh [`Evm`] over the callee's code.
///
/// # Example
///
/// ```
/// use tinyevm_evm::{asm, ContractStore, EvmConfig};
/// use tinyevm_types::{Address, U256};
///
/// let mut world = ContractStore::new(EvmConfig::cc2538());
/// let owner = Address::from_low_u64(1);
/// world.credit(owner, U256::from(1_000u64));
/// assert_eq!(world.balance_of(&owner), U256::from(1_000u64));
/// ```
#[derive(Debug, Clone)]
pub struct ContractStore {
    config: EvmConfig,
    accounts: BTreeMap<Address, AccountState>,
    logs: Vec<LogEntry>,
    create_nonce: u64,
    /// Per-code-hash cache of static analyses: every contract in the world
    /// is looked up once, on its first execution, no matter how many frames
    /// run it afterwards, and stores on one thread share one analysis of
    /// the same code.
    analyses: AnalysisCache,
    tracer: TraceHandle,
}

impl ContractStore {
    /// Creates an empty world that runs nested frames with `config`.
    pub fn new(config: EvmConfig) -> Self {
        ContractStore {
            config,
            accounts: BTreeMap::new(),
            logs: Vec::new(),
            create_nonce: 0,
            analyses: AnalysisCache::new(),
            tracer: TraceHandle::default(),
        }
    }

    /// Attaches a tracer: nested frames publish per-call events and the
    /// analysis cache publishes hit/miss counters. The default handle is a
    /// no-op.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.tracer = tracer;
    }

    /// The store's static-analysis cache (hit/miss counters included).
    pub fn analysis_cache(&self) -> &AnalysisCache {
        &self.analyses
    }

    /// The configuration nested frames run with.
    pub fn config(&self) -> &EvmConfig {
        &self.config
    }

    /// Adds `amount` to an account balance (creating the account).
    pub fn credit(&mut self, address: Address, amount: U256) {
        let account = self.accounts.entry(address).or_default();
        account.balance = account.balance.wrapping_add(amount);
    }

    /// Balance of an account.
    pub fn balance_of(&self, address: &Address) -> U256 {
        self.accounts
            .get(address)
            .map(|a| a.balance)
            .unwrap_or(U256::ZERO)
    }

    /// Installs runtime code at an address directly (without running init
    /// code); returns the previous code if any.
    pub fn install_code(&mut self, address: Address, code: Vec<u8>) -> Vec<u8> {
        let account = self.accounts.entry(address).or_default();
        std::mem::replace(&mut account.code, code)
    }

    /// Reads the runtime code at an address.
    pub fn code_of(&self, address: &Address) -> Vec<u8> {
        self.accounts
            .get(address)
            .map(|a| a.code.clone())
            .unwrap_or_default()
    }

    /// Reads one storage slot of an account.
    pub fn storage_of(&self, address: &Address, key: U256) -> U256 {
        self.accounts
            .get(address)
            .map(|a| a.storage.load(key))
            .unwrap_or(U256::ZERO)
    }

    /// Writes one storage slot of an account directly.
    pub fn set_storage(&mut self, address: Address, key: U256, value: U256) {
        let account = self.accounts.entry(address).or_default();
        // WordStorage::store never fails.
        let _ = account.storage.store(key, value);
    }

    /// Logs emitted by all executed frames.
    pub fn logs(&self) -> &[LogEntry] {
        &self.logs
    }

    /// True if the account executed `SELFDESTRUCT`.
    pub fn is_destroyed(&self, address: &Address) -> bool {
        self.accounts
            .get(address)
            .map(|a| a.destroyed)
            .unwrap_or(false)
    }

    /// Moves value between accounts; returns false (and does nothing) when
    /// the sender's balance is insufficient.
    pub fn transfer(&mut self, from: &Address, to: &Address, value: U256) -> bool {
        if value.is_zero() {
            return true;
        }
        let from_balance = self.balance_of(from);
        if from_balance < value {
            return false;
        }
        self.accounts.entry(*from).or_default().balance = from_balance.wrapping_sub(value);
        let to_account = self.accounts.entry(*to).or_default();
        to_account.balance = to_account.balance.wrapping_add(value);
        true
    }

    /// Deterministic address for the next created contract.
    fn derive_create_address(&mut self, creator: &Address) -> Address {
        self.create_nonce += 1;
        let mut data = Vec::with_capacity(28);
        data.extend_from_slice(creator.as_bytes());
        data.extend_from_slice(&self.create_nonce.to_be_bytes());
        let digest = tinyevm_crypto::keccak256_h256(&data);
        Address::from_hash(&digest)
    }

    /// Runs `target`'s code in a fresh frame. Used by `call` and by the
    /// chain simulator to invoke contract functions from transactions.
    pub fn execute_contract(
        &mut self,
        caller: Address,
        target: Address,
        value: U256,
        input: &[u8],
        iot: &mut dyn IotEnvironment,
    ) -> CallOutcome {
        let request = CallRequest {
            kind: CallKind::Call,
            caller,
            target,
            context_address: target,
            value,
            input: input.to_vec(),
            depth_remaining: self.config.max_call_depth,
        };
        self.call(request, iot)
    }

    fn run_frame(
        &mut self,
        code: &[u8],
        context: CallContext,
        storage_address: Address,
        static_mode: bool,
        depth_remaining: usize,
        iot: &mut dyn IotEnvironment,
    ) -> FrameResult {
        // Detach the storage of the context account so the interpreter can
        // borrow both the storage and the host (self) mutably.
        let mut storage = self
            .accounts
            .entry(storage_address)
            .or_default()
            .storage
            .clone();
        // Look the analysis up (an Arc clone) before handing `self` to the
        // interpreter as the host.
        let misses_before = self.analyses.misses();
        let evictions_before = self.analyses.evictions();
        let analysis = self.analyses.analyze(code);
        if self.tracer.enabled() {
            if self.analyses.misses() > misses_before {
                self.tracer.count("evm.analysis_cache.misses", 1);
                // A miss is this store's first sight of the code (its
                // analysis may be another store's, shared on this thread):
                // surface what the symbolic pass concluded about it.
                self.tracer.count("analysis.verdicts", 1);
                let resolved = analysis.resolved_jumps().len() as u64;
                if resolved > 0 {
                    self.tracer.count("analysis.resolved_jumps", resolved);
                }
                if analysis.gas_certificate().is_bounded() {
                    self.tracer.count("analysis.certificates", 1);
                }
            } else {
                self.tracer.count("evm.analysis_cache.hits", 1);
            }
            let evicted = self.analyses.evictions() - evictions_before;
            if evicted > 0 {
                self.tracer.count("evm.analysis_cache.evictions", evicted);
            }
            self.tracer
                .gauge("evm.analysis_cache.entries", self.analyses.len() as f64);
        }
        let mut evm = Evm::new(self.config.clone()).with_tracer(self.tracer.clone());
        let result = evm.execute_analyzed(
            code,
            &analysis,
            context,
            &mut storage,
            self,
            iot,
            static_mode,
            depth_remaining,
        );
        match result {
            Ok(exec) => {
                let revert = exec.outcome == ExecOutcome::Revert;
                if !revert && !static_mode {
                    self.accounts.entry(storage_address).or_default().storage = storage;
                }
                FrameResult {
                    success: exec.outcome != ExecOutcome::Revert,
                    returned: exec.outcome == ExecOutcome::Return,
                    output: exec.output,
                    metrics: exec.metrics,
                }
            }
            Err(error) => {
                let mut metrics = ExecMetrics::new();
                metrics.instructions = error.instructions_executed;
                FrameResult {
                    success: false,
                    returned: false,
                    output: Vec::new(),
                    metrics,
                }
            }
        }
    }
}

impl Host for ContractStore {
    fn balance(&self, address: &Address) -> U256 {
        self.balance_of(address)
    }

    fn code(&self, address: &Address) -> Vec<u8> {
        self.code_of(address)
    }

    fn call(&mut self, request: CallRequest, iot: &mut dyn IotEnvironment) -> CallOutcome {
        if request.depth_remaining == 0 {
            return CallOutcome::failure();
        }
        let code = self.code_of(&request.target);
        if code.is_empty() {
            // Calling an account without code is a plain value transfer.
            let ok = self.transfer(&request.caller, &request.target, request.value);
            return CallOutcome {
                success: ok,
                output: Vec::new(),
                metrics: ExecMetrics::new(),
                created: None,
            };
        }
        if !request.value.is_zero()
            && !self.transfer(&request.caller, &request.context_address, request.value)
        {
            return CallOutcome::failure();
        }
        let static_mode = request.kind == CallKind::Static;
        let context = CallContext {
            address: request.context_address,
            caller: request.caller,
            origin: request.caller,
            call_value: request.value,
            call_data: request.input.clone(),
        };
        let frame = self.run_frame(
            &code,
            context,
            request.context_address,
            static_mode,
            request.depth_remaining - 1,
            iot,
        );
        CallOutcome {
            success: frame.success,
            output: frame.output,
            metrics: frame.metrics,
            created: None,
        }
    }

    fn create(
        &mut self,
        creator: Address,
        value: U256,
        init_code: &[u8],
        depth_remaining: usize,
        iot: &mut dyn IotEnvironment,
    ) -> CallOutcome {
        if depth_remaining == 0 {
            return CallOutcome::failure();
        }
        let new_address = self.derive_create_address(&creator);
        if !value.is_zero() && !self.transfer(&creator, &new_address, value) {
            return CallOutcome::failure();
        }
        let context = CallContext {
            address: new_address,
            caller: creator,
            origin: creator,
            call_value: value,
            call_data: Vec::new(),
        };
        let frame = self.run_frame(
            init_code,
            context,
            new_address,
            false,
            depth_remaining - 1,
            iot,
        );
        if !frame.success || !frame.returned || frame.output.len() > self.config.max_code_size {
            return CallOutcome {
                success: false,
                output: Vec::new(),
                metrics: frame.metrics,
                created: None,
            };
        }
        let gate = deploy_gate(&self.config, DeployStage::Runtime, || {
            self.analyses.analyze(&frame.output)
        });
        if gate.is_err() {
            return CallOutcome {
                success: false,
                output: Vec::new(),
                metrics: frame.metrics,
                created: None,
            };
        }
        self.install_code(new_address, frame.output.clone());
        CallOutcome {
            success: true,
            output: frame.output,
            metrics: frame.metrics,
            created: Some(new_address),
        }
    }

    fn emit_log(&mut self, entry: LogEntry) {
        self.logs.push(entry);
    }

    fn selfdestruct(&mut self, address: Address, beneficiary: Address) {
        let balance = self.balance_of(&address);
        let _ = self.transfer(&address, &beneficiary, balance);
        if let Some(account) = self.accounts.get_mut(&address) {
            account.destroyed = true;
            account.code.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iot::NullIotEnvironment;

    fn store() -> ContractStore {
        ContractStore::new(EvmConfig::cc2538())
    }

    #[test]
    fn credit_and_balance() {
        let mut world = store();
        let a = Address::from_low_u64(1);
        assert_eq!(world.balance_of(&a), U256::ZERO);
        world.credit(a, U256::from(500u64));
        world.credit(a, U256::from(100u64));
        assert_eq!(world.balance_of(&a), U256::from(600u64));
    }

    #[test]
    fn transfer_requires_funds() {
        let mut world = store();
        let a = Address::from_low_u64(1);
        let b = Address::from_low_u64(2);
        world.credit(a, U256::from(10u64));
        assert!(!world.transfer(&a, &b, U256::from(11u64)));
        assert!(world.transfer(&a, &b, U256::from(4u64)));
        assert_eq!(world.balance_of(&a), U256::from(6u64));
        assert_eq!(world.balance_of(&b), U256::from(4u64));
        assert!(world.transfer(&a, &b, U256::ZERO));
    }

    #[test]
    fn install_and_read_code() {
        let mut world = store();
        let a = Address::from_low_u64(7);
        assert!(world.code_of(&a).is_empty());
        let previous = world.install_code(a, vec![0x60, 0x00]);
        assert!(previous.is_empty());
        assert_eq!(world.code_of(&a), vec![0x60, 0x00]);
    }

    #[test]
    fn storage_accessors() {
        let mut world = store();
        let a = Address::from_low_u64(9);
        world.set_storage(a, U256::from(1u64), U256::from(42u64));
        assert_eq!(world.storage_of(&a, U256::from(1u64)), U256::from(42u64));
        assert_eq!(world.storage_of(&a, U256::from(2u64)), U256::ZERO);
    }

    #[test]
    fn call_to_empty_account_is_a_transfer() {
        let mut world = store();
        let a = Address::from_low_u64(1);
        let b = Address::from_low_u64(2);
        world.credit(a, U256::from(100u64));
        let outcome = world.execute_contract(a, b, U256::from(25u64), &[], &mut NullIotEnvironment);
        assert!(outcome.success);
        assert_eq!(world.balance_of(&b), U256::from(25u64));
    }

    #[test]
    fn null_host_fails_calls_and_creates() {
        let mut host = NullHost::new();
        let outcome = host.call(
            CallRequest {
                kind: CallKind::Call,
                caller: Address::ZERO,
                target: Address::from_low_u64(5),
                context_address: Address::from_low_u64(5),
                value: U256::ZERO,
                input: Vec::new(),
                depth_remaining: 4,
            },
            &mut NullIotEnvironment,
        );
        assert!(!outcome.success);
        let created = host.create(
            Address::ZERO,
            U256::ZERO,
            &[0x00],
            4,
            &mut NullIotEnvironment,
        );
        assert!(!created.success);
        assert_eq!(host.balance(&Address::ZERO), U256::ZERO);
        assert!(host.code(&Address::ZERO).is_empty());
        host.emit_log(LogEntry {
            address: Address::ZERO,
            topics: vec![],
            data: vec![1],
        });
        assert_eq!(host.logs().len(), 1);
    }

    #[test]
    fn selfdestruct_moves_balance_and_clears_code() {
        let mut world = store();
        let contract = Address::from_low_u64(3);
        let heir = Address::from_low_u64(4);
        world.credit(contract, U256::from(77u64));
        world.install_code(contract, vec![0x00]);
        world.selfdestruct(contract, heir);
        assert_eq!(world.balance_of(&heir), U256::from(77u64));
        assert!(world.is_destroyed(&contract));
        assert!(world.code_of(&contract).is_empty());
        assert!(!world.is_destroyed(&heir));
    }

    #[test]
    fn repeated_calls_analyze_code_once() {
        let mut world = store();
        let caller = Address::from_low_u64(1);
        let contract = Address::from_low_u64(2);
        // PUSH1 0x2a, PUSH1 0x00, MSTORE, PUSH1 0x20, PUSH1 0x00, RETURN
        world.install_code(
            contract,
            vec![0x60, 0x2a, 0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3],
        );
        const CALLS: u64 = 16;
        for _ in 0..CALLS {
            let outcome =
                world.execute_contract(caller, contract, U256::ZERO, &[], &mut NullIotEnvironment);
            assert!(outcome.success);
            assert_eq!(outcome.output[31], 0x2a);
        }
        let cache = world.analysis_cache();
        assert_eq!(
            cache.misses(),
            1,
            "the contract must be analyzed exactly once"
        );
        assert_eq!(cache.hits(), CALLS - 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn create_gate_refuses_rejected_runtime_code() {
        // Init code returning the 4-byte runtime "PUSH1 0x05 JUMP STOP",
        // whose jump target lands in the middle of the push immediate:
        //   PUSH4 0x60055600  PUSH1 0x00  MSTORE  PUSH1 0x04  PUSH1 0x1c  RETURN
        let init_code = vec![
            0x63, 0x60, 0x05, 0x56, 0x00, 0x60, 0x00, 0x52, 0x60, 0x04, 0x60, 0x1c, 0xf3,
        ];
        let creator = Address::from_low_u64(9);

        let mut open = store();
        let outcome = open.create(creator, U256::ZERO, &init_code, 4, &mut NullIotEnvironment);
        assert!(outcome.success, "an unvalidated world installs the code");
        let deployed = outcome.created.expect("address");
        assert_eq!(open.code_of(&deployed), vec![0x60, 0x05, 0x56, 0x00]);

        let mut gated = ContractStore::new(EvmConfig::cc2538().with_deploy_validation(true));
        let outcome = gated.create(creator, U256::ZERO, &init_code, 4, &mut NullIotEnvironment);
        assert!(
            !outcome.success,
            "the gated world must refuse the runtime code"
        );
        assert!(outcome.created.is_none());
    }

    #[test]
    fn create_addresses_are_unique() {
        let mut world = store();
        let creator = Address::from_low_u64(1);
        let a = world.derive_create_address(&creator);
        let b = world.derive_create_address(&creator);
        assert_ne!(a, b);
    }
}
