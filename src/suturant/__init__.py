"""suturant: exact Kuperberg-type invariants of balanced sutured 3-manifolds
computed from combinatorial extended Heegaard diagrams, by two independent
engines (super-tensor-network contraction and Fox-calculus determinants)."""

from .algebra import (HopfPackage, PresentedAlgebra, build_cyclic_group_algebra,
                      build_hn, check_axioms, coproduct_power)
from .errors import (AmbiguousOrientationError, ArcCurveError,
                     CharacterMismatchError, CyclotomicArithmeticError,
                     DuplicateIdError, GroupMismatchError, IllegalMoveError,
                     InvalidCharacterError, InvalidMultipointError,
                     InvalidReferenceError, NonSquareError,
                     NotDivisibleError, OddScalarError, ParseError,
                     SuturantError, UnknownCurveError, UnknownGeneratorError)
from .cyclotomic import CyclotomicScalar, cyclotomic_polynomial
from .diagram import (Crossing, Curve, ExtendedDiagram, FreeWord, Multipoint,
                      alpha_word, beta_word, canonical_sign, enumerate_multipoints,
                      epsilon_class, multipoint_sign, parse_diagram, rebase,
                      serialize_diagram, validate)
from .foxcalc import (AbelianGroup, Character, GroupRingElement,
                      InvariantClass, abelianize, all_characters,
                      canonical_class, class_equal, determinant,
                      divide_by_element_minus_one, evaluate, fox_derivative,
                      fox_determinant, fox_matrix, homology,
                      multipoint_expansion, presented_group,
                      smith_normal_form)
from .invariant import (OrientationSign, SpincRelative, alexander_from_torsion,
                        invariant_h0, invariant_hn, invariant_hn_values,
                        torsion_class)
from .kuperberg import (CharacterAssignment, basepoint_shift, contract,
                        contract_values)
from .moves import (AddTrivialHandles, CancelFinger, Destabilize,
                    FingerIsotopy, HandleslideCurve, ReorderCurves,
                    ReverseCurve, Stabilize, apply_move, compose_generator_maps,
                    generator_map, orientation_flip, parse_move_script,
                    random_move_sequence, transfer_exponents)

__version__ = "0.1.0"
