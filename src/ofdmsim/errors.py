"""Exception types raised by the simulator, and the integer check of a count."""

import operator


class OfdmSimError(Exception):
    """Base class for all simulator errors."""


class InvalidConfiguration(OfdmSimError):
    """A configuration value violates its documented constraints."""


class PilotCountExceedsN(InvalidConfiguration):
    """More pilot subcarriers requested than subchannels available."""


class NonPowerOfTwoLength(OfdmSimError):
    """Transform input length is not a power of two."""


class UnsupportedOrder(InvalidConfiguration):
    """Modulation order that the modem's table of constellations does not hold."""


class LengthNotDivisible(OfdmSimError):
    """Bit block length is not a multiple of bits-per-symbol."""


class LengthMismatch(OfdmSimError):
    """Vector length disagrees with the configured dimension."""


class SingularChannelGain(OfdmSimError):
    """Channel frequency response is (numerically) zero on a used subcarrier."""


class EmptyInput(OfdmSimError):
    """Operation requires a non-empty sample vector."""


class NonPositiveRefPower(OfdmSimError):
    """Reference power for noise calibration must be > 0."""


def int_field(name: str, value) -> int:
    """value as operator.index gives it, which takes Python and numpy integers; anything else, a float
    such as 2.5 too, raises InvalidConfiguration naming the field."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidConfiguration(f"{name} must be an integer, got {value!r}") from None
