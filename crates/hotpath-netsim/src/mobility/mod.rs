//! Moving-object mobility: walkers, noise models, and the population.

mod noise;
mod population;
mod walker;

pub use noise::{GaussianNoise, UniformNoise};
pub use population::{Measurement, Population, PopulationParams};
pub use walker::{ChoicePolicy, Walker};
