//! The block-producing chain that hosts accounts and template contracts.

use std::collections::BTreeMap;

use tinyevm_crypto::keccak256_h256;
use tinyevm_types::{Address, Wei, H256};

use crate::state::CommitEnvelope;
use crate::template::{Settlement, TemplateConfig, TemplateContract, TemplateError};

/// What a transaction did, for the block record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransactionKind {
    /// Plain value transfer.
    Transfer {
        /// Destination account.
        to: Address,
        /// Amount moved.
        amount: Wei,
    },
    /// Publication of a template contract with a locked deposit.
    PublishTemplate {
        /// Address assigned to the template.
        template: Address,
    },
    /// Commit of a channel state to a template.
    Commit {
        /// Template the commit went to.
        template: Address,
        /// Channel the state belongs to.
        channel_id: u64,
        /// Committed sequence number.
        sequence: u64,
    },
    /// Exit request on a template.
    StartExit {
        /// The template.
        template: Address,
        /// Deadline block of the challenge period.
        challenge_deadline: u64,
    },
    /// Finalization of a template after its challenge period.
    Finalize {
        /// The template.
        template: Address,
        /// True when the insurance went to the honest party.
        fraud_detected: bool,
    },
}

/// One recorded transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Sending account.
    pub from: Address,
    /// What happened.
    pub kind: TransactionKind,
    /// Block that included it.
    pub block_number: u64,
}

/// One sealed block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Height of the block.
    pub number: u64,
    /// Hash of the previous block.
    pub parent_hash: H256,
    /// Hash of this block.
    pub hash: H256,
    /// Number of transactions included.
    pub transaction_count: usize,
}

/// Errors returned by chain operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// The sender's balance is insufficient.
    InsufficientBalance {
        /// Account that tried to pay.
        account: Address,
        /// Amount needed.
        needed: Wei,
        /// Amount available.
        available: Wei,
    },
    /// No template is registered at the address.
    UnknownTemplate(Address),
    /// The template rejected the operation.
    Template(TemplateError),
}

impl core::fmt::Display for ChainError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ChainError::InsufficientBalance {
                account,
                needed,
                available,
            } => write!(f, "{account} needs {needed} but has {available}"),
            ChainError::UnknownTemplate(address) => write!(f, "no template at {address}"),
            ChainError::Template(error) => write!(f, "template rejected: {error}"),
        }
    }
}

impl std::error::Error for ChainError {}

impl From<TemplateError> for ChainError {
    fn from(error: TemplateError) -> Self {
        ChainError::Template(error)
    }
}

/// The simulated main chain.
///
/// # Example
///
/// ```
/// use tinyevm_chain::Blockchain;
/// use tinyevm_types::{Address, Wei};
///
/// let mut chain = Blockchain::new();
/// let alice = Address::from_low_u64(1);
/// chain.fund(alice, Wei::from_eth(1));
/// assert_eq!(chain.balance(&alice), Wei::from_eth(1));
/// ```
#[derive(Debug)]
pub struct Blockchain {
    balances: BTreeMap<Address, Wei>,
    templates: BTreeMap<Address, TemplateContract>,
    blocks: Vec<Block>,
    transactions: Vec<Transaction>,
    next_template_nonce: u64,
}

impl Blockchain {
    /// Creates a chain with a genesis block and no accounts.
    pub fn new() -> Self {
        let genesis = Block {
            number: 0,
            parent_hash: H256::ZERO,
            hash: keccak256_h256(b"tinyevm genesis"),
            transaction_count: 0,
        };
        Blockchain {
            balances: BTreeMap::new(),
            templates: BTreeMap::new(),
            blocks: vec![genesis],
            transactions: Vec::new(),
            next_template_nonce: 0,
        }
    }

    /// Reconstructs a chain from persisted parts (the `tinyevm-wire`
    /// snapshot layer): account balances, the per-block transaction counts
    /// (block hashes chain deterministically from the fixed genesis, so the
    /// counts alone reproduce every hash), the template-address nonce and
    /// the template contracts themselves.
    ///
    /// The transaction *log* is a convenience record for reports, not
    /// consensus state, and is not part of a snapshot; a restored chain
    /// starts with an empty log.
    pub fn restore_from_parts(
        balances: Vec<(Address, Wei)>,
        block_transaction_counts: &[u32],
        next_template_nonce: u64,
        templates: Vec<(Address, TemplateContract)>,
    ) -> Self {
        let mut chain = Blockchain::new();
        for count in block_transaction_counts {
            chain.seal_block(*count as usize);
        }
        chain.balances = balances.into_iter().collect();
        chain.templates = templates.into_iter().collect();
        chain.next_template_nonce = next_template_nonce;
        chain
    }

    /// Current block height.
    pub fn height(&self) -> u64 {
        self.blocks.last().map(|b| b.number).unwrap_or(0)
    }

    /// Hash of the latest sealed block.
    pub fn head_hash(&self) -> H256 {
        self.blocks.last().map(|b| b.hash).unwrap_or(H256::ZERO)
    }

    /// All sealed blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// All recorded transactions.
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// Balance of an account.
    pub fn balance(&self, account: &Address) -> Wei {
        self.balances.get(account).copied().unwrap_or(Wei::ZERO)
    }

    /// Credits an account out of thin air (genesis allocation / faucet).
    pub fn fund(&mut self, account: Address, amount: Wei) {
        let balance = self.balance(&account).saturating_add(amount);
        self.balances.insert(account, balance);
    }

    /// All accounts with a balance, in address order.
    pub fn balances(&self) -> impl Iterator<Item = (&Address, &Wei)> {
        self.balances.iter()
    }

    /// A registered template contract.
    pub fn template(&self, address: &Address) -> Option<&TemplateContract> {
        self.templates.get(address)
    }

    /// All registered templates, in address order.
    pub fn templates(&self) -> impl Iterator<Item = (&Address, &TemplateContract)> {
        self.templates.iter()
    }

    /// The nonce used to derive the next template address.
    pub fn next_template_nonce(&self) -> u64 {
        self.next_template_nonce
    }

    /// A digest over the chain's consensus state: head block hash, height,
    /// template nonce, every account balance and every template's full
    /// state (config, phase, logical clock, channel records, fraud flag and
    /// Merkle-Sum-Tree root). Two chains with equal roots settle every
    /// channel identically — this is what snapshot restore is checked
    /// against.
    pub fn state_root(&self) -> H256 {
        let mut data = Vec::with_capacity(128);
        data.extend_from_slice(self.head_hash().as_bytes());
        data.extend_from_slice(&self.height().to_be_bytes());
        data.extend_from_slice(&self.next_template_nonce.to_be_bytes());
        for (account, balance) in &self.balances {
            data.extend_from_slice(account.as_bytes());
            data.extend_from_slice(&balance.amount().to_be_bytes());
        }
        for (address, template) in &self.templates {
            data.extend_from_slice(address.as_bytes());
            let config = template.config();
            data.extend_from_slice(config.sender.as_bytes());
            data.extend_from_slice(config.receiver.as_bytes());
            data.extend_from_slice(&config.deposit.amount().to_be_bytes());
            data.extend_from_slice(&config.challenge_period_blocks.to_be_bytes());
            let (phase_tag, deadline) = match template.phase() {
                crate::template::TemplatePhase::Active => (0u8, 0u64),
                crate::template::TemplatePhase::Exiting { challenge_deadline } => {
                    (1, challenge_deadline)
                }
                crate::template::TemplatePhase::Closed => (2, 0),
            };
            data.push(phase_tag);
            data.extend_from_slice(&deadline.to_be_bytes());
            data.extend_from_slice(&template.logical_clock().to_be_bytes());
            data.push(template.fraud_detected() as u8);
            for record in template.channels() {
                data.extend_from_slice(&record.channel_id.to_be_bytes());
                data.extend_from_slice(&record.sequence.to_be_bytes());
                data.extend_from_slice(&record.total_to_receiver.amount().to_be_bytes());
            }
            let root = template.side_chain_root();
            data.extend_from_slice(root.hash.as_bytes());
            data.extend_from_slice(&root.sum.amount().to_be_bytes());
        }
        keccak256_h256(&data)
    }

    /// Advances the chain by `blocks` empty blocks — used to let challenge
    /// periods elapse.
    pub fn advance_blocks(&mut self, blocks: u64) {
        for _ in 0..blocks {
            self.seal_block(0);
        }
    }

    fn seal_block(&mut self, transaction_count: usize) -> u64 {
        let parent = self.blocks.last().expect("genesis always present");
        let number = parent.number + 1;
        let mut data = Vec::with_capacity(44);
        data.extend_from_slice(parent.hash.as_bytes());
        data.extend_from_slice(&number.to_be_bytes());
        data.extend_from_slice(&(transaction_count as u32).to_be_bytes());
        let hash = keccak256_h256(&data);
        self.blocks.push(Block {
            number,
            parent_hash: parent.hash,
            hash,
            transaction_count,
        });
        number
    }

    fn record(&mut self, from: Address, kind: TransactionKind) -> u64 {
        let block_number = self.seal_block(1);
        self.transactions.push(Transaction {
            from,
            kind,
            block_number,
        });
        block_number
    }

    fn debit(&mut self, account: &Address, amount: Wei) -> Result<(), ChainError> {
        let balance = self.balance(account);
        let remaining = balance
            .checked_sub(amount)
            .ok_or(ChainError::InsufficientBalance {
                account: *account,
                needed: amount,
                available: balance,
            })?;
        self.balances.insert(*account, remaining);
        Ok(())
    }

    /// Transfers value between accounts, sealing a block.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::InsufficientBalance`] when the sender cannot
    /// cover the amount.
    pub fn transfer(&mut self, from: Address, to: Address, amount: Wei) -> Result<u64, ChainError> {
        self.debit(&from, amount)?;
        self.fund(to, amount);
        Ok(self.record(from, TransactionKind::Transfer { to, amount }))
    }

    /// Publishes a template contract: locks the deposit from the sender and
    /// registers the contract (paper phase 1, "on-chain smart contract").
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::InsufficientBalance`] when the deposit cannot
    /// be locked.
    pub fn publish_template(&mut self, config: TemplateConfig) -> Result<Address, ChainError> {
        self.debit(&config.sender, config.deposit)?;
        self.next_template_nonce += 1;
        let mut data = Vec::with_capacity(28);
        data.extend_from_slice(config.sender.as_bytes());
        data.extend_from_slice(&self.next_template_nonce.to_be_bytes());
        let address = Address::from_hash(&keccak256_h256(&data));
        let sender = config.sender;
        self.templates
            .insert(address, TemplateContract::new(config));
        self.record(
            sender,
            TransactionKind::PublishTemplate { template: address },
        );
        Ok(address)
    }

    /// Registers a new payment channel on a template, returning its channel
    /// id (the logical-clock value).
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::UnknownTemplate`] or a template error.
    pub fn create_payment_channel(
        &mut self,
        caller: Address,
        template: Address,
    ) -> Result<u64, ChainError> {
        let contract = self
            .templates
            .get_mut(&template)
            .ok_or(ChainError::UnknownTemplate(template))?;
        let channel_id = contract.create_payment_channel(caller)?;
        Ok(channel_id)
    }

    /// Commits a dual-signed channel state to a template (paper phase 3).
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::UnknownTemplate`] or the template's rejection.
    pub fn commit_channel_state(
        &mut self,
        caller: Address,
        template: Address,
        envelope: &CommitEnvelope,
    ) -> Result<u64, ChainError> {
        let height = self.height();
        let contract = self
            .templates
            .get_mut(&template)
            .ok_or(ChainError::UnknownTemplate(template))?;
        contract.commit(caller, envelope, height)?;
        Ok(self.record(
            caller,
            TransactionKind::Commit {
                template,
                channel_id: envelope.state.channel_id,
                sequence: envelope.state.sequence,
            },
        ))
    }

    /// Starts the exit of a template, opening its challenge period.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::UnknownTemplate`] or the template's rejection.
    pub fn start_exit(&mut self, caller: Address, template: Address) -> Result<u64, ChainError> {
        let height = self.height();
        let contract = self
            .templates
            .get_mut(&template)
            .ok_or(ChainError::UnknownTemplate(template))?;
        let deadline = contract.start_exit(caller, height)?;
        self.record(
            caller,
            TransactionKind::StartExit {
                template,
                challenge_deadline: deadline,
            },
        );
        Ok(deadline)
    }

    /// Finalizes a template after its challenge period and pays out.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::UnknownTemplate`] or the template's rejection
    /// (for example when the challenge period is still running).
    pub fn finalize_template(
        &mut self,
        caller: Address,
        template: Address,
    ) -> Result<Settlement, ChainError> {
        let height = self.height();
        let contract = self
            .templates
            .get_mut(&template)
            .ok_or(ChainError::UnknownTemplate(template))?;
        let settlement = contract.finalize(height)?;
        let (sender, receiver) = {
            let config = contract.config();
            (config.sender, config.receiver)
        };
        self.fund(receiver, settlement.to_receiver);
        self.fund(sender, settlement.to_sender);
        self.record(
            caller,
            TransactionKind::Finalize {
                template,
                fraud_detected: settlement.fraud_detected,
            },
        );
        Ok(settlement)
    }
}

impl Default for Blockchain {
    fn default() -> Self {
        Blockchain::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ChannelState;
    use tinyevm_crypto::secp256k1::PrivateKey;

    fn setup() -> (Blockchain, PrivateKey, PrivateKey) {
        let mut chain = Blockchain::new();
        let sender = PrivateKey::from_seed(b"car owner");
        let receiver = PrivateKey::from_seed(b"parking operator");
        chain.fund(sender.eth_address(), Wei::from(10_000u64));
        chain.fund(receiver.eth_address(), Wei::from(1_000u64));
        (chain, sender, receiver)
    }

    fn template_config(sender: &PrivateKey, receiver: &PrivateKey, deposit: u64) -> TemplateConfig {
        TemplateConfig {
            sender: sender.eth_address(),
            receiver: receiver.eth_address(),
            deposit: Wei::from(deposit),
            challenge_period_blocks: 5,
        }
    }

    fn envelope(
        template: Address,
        sender: &PrivateKey,
        receiver: &PrivateKey,
        channel_id: u64,
        sequence: u64,
        amount: u64,
    ) -> CommitEnvelope {
        let state = ChannelState {
            template,
            channel_id,
            sequence,
            total_to_receiver: Wei::from(amount),
            sensor_data_hash: H256::from_low_u64(42),
        };
        let digest = state.digest();
        CommitEnvelope {
            state,
            sender_signature: sender.sign_prehashed(&digest),
            receiver_signature: receiver.sign_prehashed(&digest),
        }
    }

    #[test]
    fn genesis_and_funding() {
        let chain = Blockchain::new();
        assert_eq!(chain.height(), 0);
        assert_eq!(chain.blocks().len(), 1);
        let (chain, sender, _) = setup();
        assert_eq!(chain.balance(&sender.eth_address()), Wei::from(10_000u64));
        assert_eq!(chain.balance(&Address::from_low_u64(99)), Wei::ZERO);
    }

    #[test]
    fn transfers_move_value_and_seal_blocks() {
        let (mut chain, sender, receiver) = setup();
        let block = chain
            .transfer(
                sender.eth_address(),
                receiver.eth_address(),
                Wei::from(500u64),
            )
            .unwrap();
        assert_eq!(block, 1);
        assert_eq!(chain.balance(&sender.eth_address()), Wei::from(9_500u64));
        assert_eq!(chain.balance(&receiver.eth_address()), Wei::from(1_500u64));
        assert_eq!(chain.transactions().len(), 1);
        assert!(matches!(
            chain.transfer(
                sender.eth_address(),
                receiver.eth_address(),
                Wei::from(1_000_000u64)
            ),
            Err(ChainError::InsufficientBalance { .. })
        ));
    }

    #[test]
    fn block_hashes_chain_together() {
        let mut chain = Blockchain::new();
        chain.advance_blocks(3);
        let blocks = chain.blocks();
        assert_eq!(blocks.len(), 4);
        for pair in blocks.windows(2) {
            assert_eq!(pair[1].parent_hash, pair[0].hash);
            assert_eq!(pair[1].number, pair[0].number + 1);
        }
    }

    #[test]
    fn publishing_a_template_locks_the_deposit() {
        let (mut chain, sender, receiver) = setup();
        let config = template_config(&sender, &receiver, 2_000);
        let template = chain.publish_template(config).unwrap();
        assert_eq!(chain.balance(&sender.eth_address()), Wei::from(8_000u64));
        assert!(chain.template(&template).is_some());
        // Publishing without funds fails.
        let poor = PrivateKey::from_seed(b"broke");
        let config = TemplateConfig {
            sender: poor.eth_address(),
            receiver: receiver.eth_address(),
            deposit: Wei::from(1u64),
            challenge_period_blocks: 5,
        };
        assert!(matches!(
            chain.publish_template(config),
            Err(ChainError::InsufficientBalance { .. })
        ));
    }

    #[test]
    fn full_commit_exit_finalize_lifecycle() {
        let (mut chain, sender, receiver) = setup();
        let template = chain
            .publish_template(template_config(&sender, &receiver, 2_000))
            .unwrap();
        let channel = chain
            .create_payment_channel(sender.eth_address(), template)
            .unwrap();
        assert_eq!(channel, 1);

        // Receiver commits the final state of the channel.
        let state = envelope(template, &sender, &receiver, channel, 7, 750);
        chain
            .commit_channel_state(receiver.eth_address(), template, &state)
            .unwrap();

        // Receiver exits; challenge period must elapse before finalizing.
        chain.start_exit(receiver.eth_address(), template).unwrap();
        assert!(matches!(
            chain.finalize_template(receiver.eth_address(), template),
            Err(ChainError::Template(
                TemplateError::ChallengePeriodActive { .. }
            ))
        ));
        chain.advance_blocks(6);
        let settlement = chain
            .finalize_template(receiver.eth_address(), template)
            .unwrap();
        assert_eq!(settlement.to_receiver, Wei::from(750u64));
        assert_eq!(settlement.to_sender, Wei::from(1_250u64));

        // Balances after settlement: sender got the unspent deposit back.
        assert_eq!(
            chain.balance(&sender.eth_address()),
            Wei::from(8_000 + 1_250u64)
        );
        assert_eq!(
            chain.balance(&receiver.eth_address()),
            Wei::from(1_000 + 750u64)
        );
        // Transactions were recorded for every step.
        assert!(chain.transactions().len() >= 4);
    }

    #[test]
    fn commit_to_unknown_template_fails() {
        let (mut chain, sender, receiver) = setup();
        let bogus = Address::from_low_u64(0xbad);
        let state = envelope(bogus, &sender, &receiver, 1, 1, 10);
        assert!(matches!(
            chain.commit_channel_state(sender.eth_address(), bogus, &state),
            Err(ChainError::UnknownTemplate(_))
        ));
        assert!(matches!(
            chain.create_payment_channel(sender.eth_address(), bogus),
            Err(ChainError::UnknownTemplate(_))
        ));
        assert!(matches!(
            chain.start_exit(sender.eth_address(), bogus),
            Err(ChainError::UnknownTemplate(_))
        ));
    }

    #[test]
    fn challenge_during_exit_updates_the_payout() {
        let (mut chain, sender, receiver) = setup();
        let template = chain
            .publish_template(template_config(&sender, &receiver, 2_000))
            .unwrap();
        let channel = chain
            .create_payment_channel(sender.eth_address(), template)
            .unwrap();

        // Sender commits an old state (100) and exits immediately.
        let stale = envelope(template, &sender, &receiver, channel, 2, 100);
        chain
            .commit_channel_state(sender.eth_address(), template, &stale)
            .unwrap();
        chain.start_exit(sender.eth_address(), template).unwrap();

        // Receiver challenges with the newer state (900) during the window.
        let fresh = envelope(template, &sender, &receiver, channel, 9, 900);
        chain
            .commit_channel_state(receiver.eth_address(), template, &fresh)
            .unwrap();

        chain.advance_blocks(10);
        let settlement = chain
            .finalize_template(receiver.eth_address(), template)
            .unwrap();
        assert_eq!(settlement.to_receiver, Wei::from(900u64));
    }
}
