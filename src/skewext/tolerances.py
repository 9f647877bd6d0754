"""The package's tolerance constants, in one place.

Plain floats with no imports, so that the CLI parser can show its defaults
without loading the numeric substrate.  ``subspace`` and ``linalg`` import
them from here, so ``subspace.RANK_TOL`` and ``subspace.ORTH_TOL`` still
name the same values.
"""

#: Default threshold for rank decisions: singular values below RANK_TOL
#: times the largest one are treated as zero, and on a block of rows of an
#: orthonormal basis those at or below RANK_TOL itself.
RANK_TOL = 1e-10

#: Default tolerance for orthonormality/equality checks.
ORTH_TOL = 1e-9

#: Allowed deviation of singular values from 1 for unitary matrices, and
#: allowed excess above 1 for contractions.
UNITARY_TOL = 1e-8

#: Allowed entrywise error of a parameter read back from its extension.
ROUNDTRIP_TOL = 10 * UNITARY_TOL
