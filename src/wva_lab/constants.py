"""Physical constants (SI units throughout the package)."""

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact by definition
