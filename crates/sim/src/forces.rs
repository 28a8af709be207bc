//! The force law: a gradient-capable kernel plus the sign convention
//! tying the treecode's field `(φ, ∇φ)` to forces and potential energy.

use std::sync::Arc;

use bltc_core::field::FieldResult;
use bltc_core::kernel::GradientKernel;

/// A force law for the integrator: a [`GradientKernel`] and the sign
/// relating the evaluated field to forces.
///
/// The distributed field evaluation returns `φ_i = Σ_j G(x_i, y_j) q_j`
/// and its target-gradient `∇φ_i`. Two sign conventions cover the
/// workloads the paper names:
///
/// - **gravitational** (`sign = +1`): weights are masses and the force
///   is attractive, `F_i = +q_i ∇φ_i`, from the potential energy
///   `U = -½ Σ_i q_i φ_i`;
/// - **electrostatic** (`sign = -1`): weights are charges and like
///   charges repel, `F_i = -q_i ∇φ_i`, from `U = +½ Σ_i q_i φ_i`.
///
/// Both are the exact gradient of the same pairwise energy
/// `U = -sign · ½ Σ_i q_i φ_i`, which is why the integrator can check
/// energy conservation without any scenario-specific code.
#[derive(Clone)]
pub struct ForceModel {
    kernel: Arc<dyn GradientKernel>,
    /// `+1` for attractive (gravitational), `-1` for electrostatic.
    pub sign: f64,
    /// Short scenario label for reports.
    pub name: &'static str,
}

impl ForceModel {
    /// An attractive (gravitational) force law: `F_i = +q_i ∇φ_i`.
    pub fn gravitational(kernel: impl GradientKernel + 'static, name: &'static str) -> Self {
        Self {
            kernel: Arc::new(kernel),
            sign: 1.0,
            name,
        }
    }

    /// An electrostatic force law: `F_i = -q_i ∇φ_i`.
    pub fn electrostatic(kernel: impl GradientKernel + 'static, name: &'static str) -> Self {
        Self {
            kernel: Arc::new(kernel),
            sign: -1.0,
            name,
        }
    }

    /// The kernel evaluated by the distributed pipeline.
    pub fn kernel(&self) -> &dyn GradientKernel {
        self.kernel.as_ref()
    }

    /// A shared handle to the kernel, as persistent-session epochs need
    /// (`'static` closures executing on live rank threads).
    pub fn kernel_shared(&self) -> Arc<dyn GradientKernel> {
        Arc::clone(&self.kernel)
    }

    /// Overwrite `(ax, ay, az)` with accelerations from an evaluated
    /// field: `a_i = sign · (q_i / m_i) · ∇φ_i`.
    pub fn accelerations_into(
        &self,
        field: &FieldResult,
        q: &[f64],
        mass: &[f64],
        ax: &mut [f64],
        ay: &mut [f64],
        az: &mut [f64],
    ) {
        for i in 0..q.len() {
            let c = self.sign * q[i] / mass[i];
            ax[i] = c * field.gx[i];
            ay[i] = c * field.gy[i];
            az[i] = c * field.gz[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bltc_core::kernel::Coulomb;

    #[test]
    fn sign_conventions() {
        let g = ForceModel::gravitational(Coulomb, "g");
        let e = ForceModel::electrostatic(Coulomb, "e");
        assert_eq!(g.sign, 1.0);
        assert_eq!(e.sign, -1.0);
    }

    #[test]
    fn two_equal_masses_attract_head_on() {
        // Two unit masses on the x-axis: gravity must pull them toward
        // each other with equal and opposite accelerations.
        let g = ForceModel::gravitational(Coulomb, "g");
        let k = g.kernel();
        // φ-gradient at each particle from the other (dx = x_i - x_j).
        let (_, gx0, ..) = k.eval_with_grad(-1.0, 0.0, 0.0); // at x=0, source x=1
        let (_, gx1, ..) = k.eval_with_grad(1.0, 0.0, 0.0);
        let field = FieldResult {
            potentials: vec![1.0, 1.0],
            gx: vec![gx0, gx1],
            gy: vec![0.0, 0.0],
            gz: vec![0.0, 0.0],
        };
        let (mut ax, mut ay, mut az) = (vec![0.0; 2], vec![0.0; 2], vec![0.0; 2]);
        g.accelerations_into(&field, &[1.0, 1.0], &[1.0, 1.0], &mut ax, &mut ay, &mut az);
        assert!(ax[0] > 0.0, "left mass accelerates right, got {}", ax[0]);
        assert!(ax[1] < 0.0, "right mass accelerates left, got {}", ax[1]);
        assert_eq!(ax[0], -ax[1], "Newton's third law");
    }

    #[test]
    fn like_charges_repel() {
        let e = ForceModel::electrostatic(Coulomb, "e");
        let k = e.kernel();
        let (_, gx0, ..) = k.eval_with_grad(-1.0, 0.0, 0.0);
        let field = FieldResult {
            potentials: vec![1.0],
            gx: vec![gx0],
            gy: vec![0.0],
            gz: vec![0.0],
        };
        let (mut ax, mut ay, mut az) = (vec![0.0], vec![0.0], vec![0.0]);
        e.accelerations_into(&field, &[1.0], &[1.0], &mut ax, &mut ay, &mut az);
        assert!(ax[0] < 0.0, "left charge pushed further left");
    }
}
