//! Contract deployment: executing init code on the device.
//!
//! Deployment is the macro-benchmark of the paper's evaluation (Section
//! VI-B): run the constructor (init code), take its return data as the
//! runtime code, check it against the device's 8 KB limit, and record how
//! much stack, memory and time the whole thing took. [`deploy`] implements
//! exactly that flow and returns the per-contract measurements that populate
//! Table II and Figures 3 and 4.

use std::borrow::Borrow;

use tinyevm_analysis::{analyze, AnalysisError, CodeAnalysis, GasCertificate, Verdict};
use tinyevm_types::{Address, U256};

use crate::config::EvmConfig;
use crate::error::{ExecError, TrapReason};
use crate::host::{Host, NullHost};
use crate::interpreter::{CallContext, Evm, ExecOutcome};
use crate::iot::{IotEnvironment, NullIotEnvironment};
use crate::metrics::ExecMetrics;
use crate::storage::SideChainStorage;

/// Why a deployment failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// The init code itself exceeds the device's bytecode ceiling and is
    /// rejected before execution (the device cannot even receive it).
    InitCodeTooLarge {
        /// Init code size in bytes.
        size: usize,
        /// Configured maximum.
        limit: usize,
    },
    /// The constructor trapped.
    ConstructorTrapped(ExecError),
    /// The constructor reverted.
    ConstructorReverted {
        /// Revert data returned by the constructor.
        output: Vec<u8>,
    },
    /// The constructor finished without returning runtime code.
    NoRuntimeCode,
    /// The returned runtime code exceeds the device limit.
    RuntimeCodeTooLarge {
        /// Runtime code size in bytes.
        size: usize,
        /// Configured maximum.
        limit: usize,
    },
    /// The static analyzer rejected the init code before execution
    /// (only with [`EvmConfig::validate_on_deploy`] enabled).
    InitCodeRejected(AnalysisError),
    /// The static analyzer rejected the constructor's returned runtime code
    /// (only with [`EvmConfig::validate_on_deploy`] enabled).
    RuntimeCodeRejected(AnalysisError),
    /// The init code lacks a worst-case gas proof within the configured
    /// budget (only with [`EvmConfig::gas_certificate_budget`] set).
    InitCodeOverBudget {
        /// What the analyzer could prove about the init code's cost.
        certificate: GasCertificate,
        /// The configured admission budget in gas units.
        budget: u64,
    },
    /// The returned runtime code lacks a worst-case gas proof within the
    /// configured budget (only with [`EvmConfig::gas_certificate_budget`]
    /// set).
    RuntimeCodeOverBudget {
        /// What the analyzer could prove about the runtime code's cost.
        certificate: GasCertificate,
        /// The configured admission budget in gas units.
        budget: u64,
    },
}

impl core::fmt::Display for DeployError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DeployError::InitCodeTooLarge { size, limit } => {
                write!(f, "init code of {size} bytes exceeds device limit {limit}")
            }
            DeployError::ConstructorTrapped(error) => write!(f, "constructor trapped: {error}"),
            DeployError::ConstructorReverted { .. } => write!(f, "constructor reverted"),
            DeployError::NoRuntimeCode => write!(f, "constructor produced no runtime code"),
            DeployError::RuntimeCodeTooLarge { size, limit } => {
                write!(
                    f,
                    "runtime code of {size} bytes exceeds device limit {limit}"
                )
            }
            DeployError::InitCodeRejected(error) => {
                write!(f, "init code rejected by static analysis: {error}")
            }
            DeployError::RuntimeCodeRejected(error) => {
                write!(f, "runtime code rejected by static analysis: {error}")
            }
            DeployError::InitCodeOverBudget {
                certificate,
                budget,
            } => {
                write!(
                    f,
                    "init code not provably within the {budget}-gas budget ({certificate})"
                )
            }
            DeployError::RuntimeCodeOverBudget {
                certificate,
                budget,
            } => {
                write!(
                    f,
                    "runtime code not provably within the {budget}-gas budget ({certificate})"
                )
            }
        }
    }
}

impl std::error::Error for DeployError {}

impl DeployError {
    /// True when the failure is a resource-limit problem (the class of
    /// failure the paper attributes the undeployable 7% to), as opposed to a
    /// defect in the contract itself.
    pub fn is_resource_limit(&self) -> bool {
        match self {
            DeployError::InitCodeTooLarge { .. } | DeployError::RuntimeCodeTooLarge { .. } => true,
            DeployError::ConstructorTrapped(error) => matches!(
                error.reason,
                TrapReason::MemoryLimitExceeded { .. }
                    | TrapReason::StackOverflow { .. }
                    | TrapReason::StorageLimitExceeded { .. }
                    | TrapReason::CodeSizeExceeded { .. }
                    | TrapReason::InstructionLimitExceeded { .. }
            ),
            _ => false,
        }
    }
}

/// The code a deploy-time gate checks.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DeployStage {
    /// Init code, before the constructor runs.
    Init,
    /// The runtime code a constructor returned, before it is installed.
    Runtime,
}

/// The deploy-time gate: refuses code the static analyzer `Rejected` under
/// [`EvmConfig::validate_on_deploy`], and code whose gas certificate is not
/// within [`EvmConfig::gas_certificate_budget`] when one is set.
/// `analysis` runs only when one of the two is on.
pub(crate) fn deploy_gate<A: Borrow<CodeAnalysis>>(
    config: &EvmConfig,
    stage: DeployStage,
    analysis: impl FnOnce() -> A,
) -> Result<(), DeployError> {
    if !config.validate_on_deploy && config.gas_certificate_budget.is_none() {
        return Ok(());
    }
    let analysis = analysis();
    let analysis = analysis.borrow();
    if config.validate_on_deploy {
        if let Verdict::Rejected(error) = analysis.verdict() {
            let error = error.clone();
            return Err(match stage {
                DeployStage::Init => DeployError::InitCodeRejected(error),
                DeployStage::Runtime => DeployError::RuntimeCodeRejected(error),
            });
        }
    }
    if let Some(budget) = config.gas_certificate_budget {
        let certificate = *analysis.gas_certificate();
        if !certificate.within_gas_budget(budget) {
            return Err(match stage {
                DeployStage::Init => DeployError::InitCodeOverBudget {
                    certificate,
                    budget,
                },
                DeployStage::Runtime => DeployError::RuntimeCodeOverBudget {
                    certificate,
                    budget,
                },
            });
        }
    }
    Ok(())
}

/// A successful deployment.
#[derive(Debug, Clone)]
pub struct DeployResult {
    /// The runtime code returned by the constructor.
    pub runtime_code: Vec<u8>,
    /// Execution metrics of the constructor run.
    pub metrics: ExecMetrics,
    /// Bytes of device memory the finished deployment occupies: the runtime
    /// code that must be kept resident. This is the "Memory Usage" series of
    /// the paper's Figure 3b, which observes that it never exceeds the
    /// shipped contract size. Storage written by the constructor is reported
    /// separately in [`ExecMetrics::storage_bytes`].
    pub deployed_memory_bytes: usize,
    /// Size of the init code that was shipped to the device.
    pub init_code_size: usize,
}

impl DeployResult {
    /// Convenience accessor for the runtime code size.
    pub fn runtime_code_size(&self) -> usize {
        self.runtime_code.len()
    }
}

/// Deploys a contract: executes `init_code` as a constructor and validates
/// the returned runtime code against the device profile.
///
/// Equivalent to [`deploy_with`] using no host accounts, no IoT peripherals
/// and empty constructor arguments.
///
/// # Errors
///
/// Returns a [`DeployError`] describing why the contract cannot run on the
/// device.
pub fn deploy(config: &EvmConfig, init_code: &[u8]) -> Result<DeployResult, DeployError> {
    deploy_with(
        config,
        init_code,
        &[],
        &mut NullHost::new(),
        &mut NullIotEnvironment,
    )
}

/// Deploys a contract with explicit constructor arguments, host and IoT
/// environment.
///
/// Constructor arguments follow the Ethereum convention of being appended to
/// the init code; the paper's payment-channel constructor additionally reads
/// a sensor through the IoT opcode during deployment, which is why the
/// environment is threaded through here.
///
/// # Errors
///
/// Returns a [`DeployError`] describing why the contract cannot run on the
/// device.
pub fn deploy_with(
    config: &EvmConfig,
    init_code: &[u8],
    constructor_args: &[u8],
    host: &mut dyn Host,
    iot: &mut dyn IotEnvironment,
) -> Result<DeployResult, DeployError> {
    // Init code larger than the staging area cannot even be received by the
    // device. Constructor arguments ride along with it.
    let staged_size = init_code.len() + constructor_args.len();
    if staged_size > config.max_init_code_size {
        return Err(DeployError::InitCodeTooLarge {
            size: staged_size,
            limit: config.max_init_code_size,
        });
    }

    let mut full_code = Vec::with_capacity(staged_size);
    full_code.extend_from_slice(init_code);
    full_code.extend_from_slice(constructor_args);

    // Refuse gated init code before a single instruction runs. Constructor
    // arguments are appended to the code but never executed, so only the
    // init code proper is analyzed.
    deploy_gate(config, DeployStage::Init, || analyze(init_code))?;

    let mut evm = Evm::new(config.clone());
    let mut storage = SideChainStorage::new(config.max_storage_bytes);
    let context = CallContext {
        address: Address::from_low_u64(0xC0DE),
        caller: Address::from_low_u64(0xCA11E6),
        origin: Address::from_low_u64(0xCA11E6),
        call_value: U256::ZERO,
        call_data: constructor_args.to_vec(),
    };
    let result = evm
        .execute_in_frame(
            &full_code,
            context,
            &mut storage,
            host,
            iot,
            false,
            config.max_call_depth,
        )
        .map_err(DeployError::ConstructorTrapped)?;

    match result.outcome {
        ExecOutcome::Revert => Err(DeployError::ConstructorReverted {
            output: result.output,
        }),
        ExecOutcome::Stop | ExecOutcome::SelfDestruct => Err(DeployError::NoRuntimeCode),
        ExecOutcome::Return => {
            let runtime_code = result.output;
            if runtime_code.is_empty() {
                return Err(DeployError::NoRuntimeCode);
            }
            if runtime_code.len() > config.max_code_size {
                return Err(DeployError::RuntimeCodeTooLarge {
                    size: runtime_code.len(),
                    limit: config.max_code_size,
                });
            }
            deploy_gate(config, DeployStage::Runtime, || analyze(&runtime_code))?;
            let deployed_memory_bytes = runtime_code.len();
            Ok(DeployResult {
                runtime_code,
                metrics: result.metrics,
                deployed_memory_bytes,
                init_code_size: staged_size,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::{assemble, wrap_as_init_code};
    use crate::iot::ScriptedSensors;

    fn config() -> EvmConfig {
        EvmConfig::cc2538()
    }

    #[test]
    fn deploys_a_simple_contract() {
        let runtime =
            assemble("PUSH1 0x2a PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN").unwrap();
        let init = wrap_as_init_code(&runtime);
        let result = deploy(&config(), &init).unwrap();
        assert_eq!(result.runtime_code, runtime);
        assert_eq!(result.init_code_size, init.len());
        assert!(result.metrics.instructions > 0);
        assert!(result.metrics.max_stack_pointer >= 2);
        assert_eq!(result.runtime_code_size(), runtime.len());
    }

    #[test]
    fn deployed_memory_never_exceeds_init_size_for_codecopy_contracts() {
        // The paper observes that final deployment memory never exceeds the
        // shipped contract size (Fig. 3b); for CODECOPY-style constructors
        // the runtime is a strict subset of the init code.
        let runtime = vec![0x00u8; 1000]; // STOP sled
        let init = wrap_as_init_code(&runtime);
        let result = deploy(&config(), &init).unwrap();
        assert!(result.deployed_memory_bytes <= init.len());
    }

    #[test]
    fn rejects_init_code_over_the_staging_limit() {
        let huge = vec![0x00u8; 30_000];
        let error = deploy(&config(), &huge).unwrap_err();
        assert_eq!(
            error,
            DeployError::InitCodeTooLarge {
                size: 30_000,
                limit: 26 * 1024
            }
        );
        assert!(error.is_resource_limit());
    }

    #[test]
    fn init_code_above_8kb_can_still_deploy_a_small_runtime() {
        // Figure 3b: shipped bytecode above 8 KB deploys as long as the
        // final deployment stays under the limit.
        let runtime =
            assemble("PUSH1 0x01 PUSH1 0x00 MSTORE8 PUSH1 0x01 PUSH1 0x00 RETURN").unwrap();
        let mut init = wrap_as_init_code(&runtime);
        // Pad the init code with unreachable bytes beyond 8 KB.
        init.extend(std::iter::repeat(0xfe).take(10_000));
        assert!(init.len() > 8 * 1024);
        let result = deploy(&config(), &init).unwrap();
        assert_eq!(result.runtime_code, runtime);
    }

    #[test]
    fn rejects_oversized_runtime_code() {
        // Init code that fits but RETURNs 5000 bytes of zeros from memory —
        // fine under an 8 KB profile, rejected under a 4 KB profile.
        let init = assemble("PUSH2 0x1388 PUSH1 0x00 RETURN").unwrap();
        assert!(deploy(&config(), &init).is_ok());
        let small = config().with_code_limit(4096).with_memory_limit(8192);
        let error = deploy(&small, &init).unwrap_err();
        assert_eq!(
            error,
            DeployError::RuntimeCodeTooLarge {
                size: 5000,
                limit: 4096
            }
        );
        assert!(error.is_resource_limit());
    }

    #[test]
    fn constructor_revert_is_reported() {
        let init = assemble("PUSH1 0x00 PUSH1 0x00 REVERT").unwrap();
        let error = deploy(&config(), &init).unwrap_err();
        assert!(matches!(error, DeployError::ConstructorReverted { .. }));
        assert!(!error.is_resource_limit());
    }

    #[test]
    fn constructor_stop_means_no_runtime_code() {
        let init = assemble("PUSH1 0x01 PUSH1 0x00 SSTORE STOP").unwrap();
        let error = deploy(&config(), &init).unwrap_err();
        assert_eq!(error, DeployError::NoRuntimeCode);
        let init = assemble("PUSH1 0x00 PUSH1 0x00 RETURN").unwrap();
        assert_eq!(
            deploy(&config(), &init).unwrap_err(),
            DeployError::NoRuntimeCode
        );
    }

    #[test]
    fn constructor_trap_is_reported_with_reason() {
        let init = assemble("PUSH1 0x01 PUSH4 0xffffffff MSTORE").unwrap();
        let error = deploy(&config(), &init).unwrap_err();
        match &error {
            DeployError::ConstructorTrapped(exec) => {
                assert!(matches!(
                    exec.reason,
                    TrapReason::MemoryLimitExceeded { .. }
                ));
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(error.is_resource_limit());
    }

    #[test]
    fn constructor_arguments_are_visible_as_calldata() {
        // Constructor stores calldata word 0 into storage slot 0, then
        // returns a 1-byte runtime.
        let init = assemble(
            "PUSH1 0x00 CALLDATALOAD PUSH1 0x00 SSTORE PUSH1 0x01 PUSH1 0x00 MSTORE8 PUSH1 0x01 PUSH1 0x00 RETURN",
        )
        .unwrap();
        let mut args = vec![0u8; 32];
        args[31] = 0x55;
        let result = deploy_with(
            &config(),
            &init,
            &args,
            &mut NullHost::new(),
            &mut NullIotEnvironment,
        )
        .unwrap();
        assert_eq!(result.runtime_code, vec![0x01]);
        assert!(result.metrics.storage_bytes > 0);
    }

    #[test]
    fn constructor_can_read_a_sensor_during_deployment() {
        // This is the paper's Listing 2 pattern: the payment-channel
        // constructor executes the IoT opcode and SSTOREs the reading.
        let init = assemble(
            "PUSH1 0x00 PUSH1 0x00 IOT PUSH1 0x0c SSTORE PUSH1 0x01 PUSH1 0x00 MSTORE8 PUSH1 0x01 PUSH1 0x00 RETURN",
        )
        .unwrap();
        let mut sensors = ScriptedSensors::new().with_reading(0, U256::from(23u64));
        let result =
            deploy_with(&config(), &init, &[], &mut NullHost::new(), &mut sensors).unwrap();
        assert_eq!(result.metrics.iot_invocations, 1);
        // Without the sensor the same deployment traps.
        let error = deploy(&config(), &init).unwrap_err();
        assert!(matches!(error, DeployError::ConstructorTrapped(_)));
    }

    #[test]
    fn display_messages() {
        let errors: Vec<DeployError> = vec![
            DeployError::InitCodeTooLarge { size: 1, limit: 2 },
            DeployError::ConstructorReverted { output: vec![] },
            DeployError::NoRuntimeCode,
            DeployError::RuntimeCodeTooLarge { size: 3, limit: 2 },
            DeployError::InitCodeRejected(AnalysisError::UndefinedInstruction {
                pc: 0,
                byte: 0x0e,
            }),
            DeployError::RuntimeCodeRejected(AnalysisError::InvalidJumpTarget { pc: 2, target: 9 }),
        ];
        for error in errors {
            assert!(!format!("{error}").is_empty());
        }
    }

    fn gated() -> EvmConfig {
        config().with_deploy_validation(true)
    }

    #[test]
    fn gate_rejects_init_code_with_bad_jump_target() {
        // PUSH1 3, JUMP, STOP — destination 3 is not a JUMPDEST.
        let init = assemble("PUSH1 0x03 JUMP STOP").unwrap();
        let error = deploy(&gated(), &init).unwrap_err();
        assert_eq!(
            error,
            DeployError::InitCodeRejected(AnalysisError::InvalidJumpTarget { pc: 2, target: 3 })
        );
        assert!(!error.is_resource_limit());
        // Without the gate the same contract runs and traps mid-execution.
        assert!(matches!(
            deploy(&config(), &init).unwrap_err(),
            DeployError::ConstructorTrapped(_)
        ));
    }

    #[test]
    fn gate_rejects_init_code_with_truncated_push() {
        let init = vec![0x61, 0xaa]; // PUSH2 with one immediate byte
        let error = deploy(&gated(), &init).unwrap_err();
        assert!(matches!(
            error,
            DeployError::InitCodeRejected(AnalysisError::TruncatedPush {
                pc: 0,
                missing: 1,
                ..
            })
        ));
    }

    #[test]
    fn gate_rejects_init_code_with_certain_stack_underflow() {
        let init = assemble("ADD STOP").unwrap();
        let error = deploy(&gated(), &init).unwrap_err();
        assert!(matches!(
            error,
            DeployError::InitCodeRejected(AnalysisError::StackUnderflow {
                pc: 0,
                needed: 2,
                ..
            })
        ));
    }

    #[test]
    fn gate_rejects_statically_invalid_runtime_code() {
        // The init code itself is clean (the runtime rides along as an
        // unreachable data segment), but the *returned* runtime contains a
        // jump to an invalid destination.
        let bad_runtime = assemble("PUSH1 0x05 JUMP STOP").unwrap();
        let init = wrap_as_init_code(&bad_runtime);
        let error = deploy(&gated(), &init).unwrap_err();
        assert_eq!(
            error,
            DeployError::RuntimeCodeRejected(AnalysisError::InvalidJumpTarget { pc: 2, target: 5 })
        );
        // The default profile still deploys it: the corpus relies on being
        // able to install intentionally-weird contracts.
        assert!(deploy(&config(), &init).is_ok());
    }

    #[test]
    fn gate_accepts_well_formed_contracts() {
        let runtime =
            assemble("PUSH1 0x2a PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN").unwrap();
        let init = wrap_as_init_code(&runtime);
        let result = deploy(&gated(), &init).unwrap();
        assert_eq!(result.runtime_code, runtime);
    }

    #[test]
    fn budget_gate_admits_cheap_contracts_and_refuses_tight_budgets() {
        let runtime =
            assemble("PUSH1 0x2a PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN").unwrap();
        let init = wrap_as_init_code(&runtime);
        // A generous budget admits; the un-budgeted profile is unaffected.
        assert!(deploy(&config().with_gas_certificate_budget(100_000), &init).is_ok());
        // A one-gas budget refuses the init code with its certificate.
        let error = deploy(&config().with_gas_certificate_budget(1), &init).unwrap_err();
        match error {
            DeployError::InitCodeOverBudget {
                certificate,
                budget: 1,
            } => assert!(certificate.is_bounded()),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn budget_gate_refuses_looping_init_code_before_it_runs() {
        // A looping constructor can never prove a bound: refused before
        // execution, regardless of whether it would actually halt.
        let looping = assemble("JUMPDEST PUSH1 0x00 JUMP").unwrap();
        let error = deploy(&config().with_gas_certificate_budget(100_000), &looping).unwrap_err();
        assert_eq!(
            error,
            DeployError::InitCodeOverBudget {
                certificate: GasCertificate::Unbounded { loop_head: 0 },
                budget: 100_000,
            }
        );
    }

    #[test]
    fn budget_gate_refuses_unbounded_runtime_code() {
        // Clean constructor, but the returned runtime loops forever:
        // JUMPDEST, PUSH1 0, JUMP — no finite worst-case bound exists.
        let looping = assemble("JUMPDEST PUSH1 0x00 JUMP").unwrap();
        let init = wrap_as_init_code(&looping);
        let error = deploy(&config().with_gas_certificate_budget(1_000_000), &init).unwrap_err();
        assert_eq!(
            error,
            DeployError::RuntimeCodeOverBudget {
                certificate: GasCertificate::Unbounded { loop_head: 0 },
                budget: 1_000_000,
            }
        );
        assert!(!error.is_resource_limit());
        // Without the budget the same contract deploys fine.
        assert!(deploy(&config(), &init).is_ok());
    }
}
