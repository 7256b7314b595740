//! Neural-network substrate for the FedSZ reproduction.
//!
//! FedSZ compresses PyTorch state dictionaries; this crate provides the
//! equivalent machinery built from scratch:
//!
//! * [`StateDict`] — ordered, named tensor collection with a binary wire
//!   format (the "pickle serialize to bytes" step of the paper's Fig 1),
//! * [`layers`] — convolution, batch norm, linear, pooling and container
//!   layers with full forward/backward passes,
//! * [`optim`] — SGD with momentum and weight decay,
//! * [`loss`] — softmax cross-entropy,
//! * [`models`] — full-size parameter-structure generators for AlexNet /
//!   MobileNetV2 / ResNet50 (used by the compression experiments) and
//!   scaled-down trainable variants (used by the FL training
//!   experiments).
//!
//! # Examples
//!
//! ```
//! use fedsz_nn::models::specs::ModelSpec;
//!
//! let spec = ModelSpec::mobilenet_v2();
//! let sd = spec.instantiate(42);
//! // torchvision's MobileNetV2 has ~3.5M parameters.
//! assert!((3_000_000..4_100_000).contains(&sd.total_elements()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kernels;
pub mod layers;
pub mod loss;
pub mod models;
pub mod optim;
pub mod state_dict;

pub use layers::{Layer, Param};
pub use state_dict::StateDict;

use std::error::Error;
use std::fmt;

/// Errors surfaced by state-dict loading and model plumbing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// A tensor expected by the model is missing from the state dict.
    MissingEntry(String),
    /// A tensor exists but its shape does not match the model's.
    ShapeMismatch {
        /// Entry name.
        name: String,
        /// Shape the model expects.
        expected: Vec<usize>,
        /// Shape found in the dict.
        found: Vec<usize>,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::MissingEntry(name) => write!(f, "state dict is missing entry `{name}`"),
            NnError::ShapeMismatch { name, expected, found } => {
                write!(f, "entry `{name}` has shape {found:?}, expected {expected:?}")
            }
        }
    }
}

impl Error for NnError {}

/// A trainable model: a forward/backward pair plus parameter access.
///
/// Implemented by the tiny trainable models in [`models::tiny`]; the FL
/// substrate only interacts with models through this trait and
/// [`StateDict`].
pub trait Model: Send {
    /// Runs the network on a batch (`train` enables batch-norm updates
    /// and layer caches needed for the backward pass).
    fn forward(&mut self, input: fedsz_tensor::Tensor, train: bool) -> fedsz_tensor::Tensor;

    /// Backpropagates the loss gradient, accumulating parameter grads.
    fn backward(&mut self, grad: fedsz_tensor::Tensor);

    /// Mutable access to every parameter, in a stable order.
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Snapshots all parameters and buffers into a named dict.
    fn state_dict(&self) -> StateDict;

    /// Restores parameters and buffers from a dict.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] when entries are missing or shaped wrongly.
    fn load_state_dict(&mut self, dict: &StateDict) -> Result<(), NnError>;

    /// Clears all parameter gradients.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }
}
