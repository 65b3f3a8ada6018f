"""Central record of numerical tolerances.

Library code and the test suite must agree on these values, so they live
in one read-only record instead of being scattered as literals. The values
are class attributes; with no instance slots, assigning to one through an
instance raises AttributeError.
"""


class Tolerances:
    __slots__ = ()

    hermiticity: float = 1e-12      # max-abs deviation of A from A-dagger, x max(1, max|A|)
    orthonormality: float = 1e-10   # max-abs deviation of a Gram matrix from identity
    norm: float = 1e-10             # allowed |norm - 1| of a state vector
    spectral: float = 1e-10         # eigendecomposition reconstruction, max-abs, x max(1, max|A|)
    expectation_imag: float = 1e-10 # imaginary part of a Hermitian expectation, x max(1, max|A|)
    probability: float = 1e-10      # slack above 1 for a model's declared fidelity
    trajectory_prob: float = 1e-9   # slack on stored probability curves
    schmidt_cutoff: float = 1e-12   # singular values below this are dropped
    schmidt_reconstruction: float = 1e-9
    distribution_sum: float = 1e-10 # allowed |sum of probabilities - 1|
    # Checks of ``mclock check``:
    projector_check: float = 1e-12      # max |G - I|, G the Gram matrix of the pairs |a_i>|o_i>
    premeasurement_check: float = 1e-9  # slack below the declared fidelity
    derivative_check: float = 1e-4      # |dP/dt - p| / g, before widening to (g h)^2


TOL = Tolerances()
