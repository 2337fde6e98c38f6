"""DAC/ADC/sample-hold tests."""

import numpy as np
import pytest

from repro.reram import (ADCSpec, DACSpec, SampleHold, paper_adc_bits,
                         required_adc_bits)


class TestDAC:
    def test_passes_bits(self):
        dac = DACSpec()
        np.testing.assert_array_equal(dac.convert(np.array([0, 1, 1])), [0.0, 1.0, 1.0])

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            DACSpec().convert(np.array([2]))

    @pytest.mark.parametrize("bad", [np.array([0, 1, 2]), np.array([1, -1]),
                                     np.array([0.0, 0.5]),
                                     np.array([[0, 1], [1, 3]], dtype=np.uint8)])
    def test_rejects_every_non_bit_value(self, bad):
        with pytest.raises(ValueError, match="DAC input must be 0/1 bits"):
            DACSpec().convert(bad)

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, np.float64])
    def test_accepts_bit_arrays_of_any_dtype(self, dtype):
        bits = np.array([[0, 1, 1], [1, 0, 0]]).astype(dtype)
        out = DACSpec().convert(bits)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
        assert DACSpec().convert(np.zeros((0, 3), dtype=dtype)).shape == (0, 3)

    def test_only_one_bit(self):
        with pytest.raises(ValueError):
            DACSpec(bits=2)


class TestADC:
    def test_rounds_to_nearest(self):
        adc = ADCSpec(bits=4)
        np.testing.assert_array_equal(adc.convert(np.array([0.4, 0.6, 7.5])),
                                      [0, 1, 8])

    def test_saturates(self):
        adc = ADCSpec(bits=3)  # max code 7
        np.testing.assert_array_equal(adc.convert(np.array([100.0, -5.0])), [7, 0])

    def test_max_code(self):
        assert ADCSpec(bits=4).max_code == 15
        assert ADCSpec(bits=8).max_code == 255

    def test_saturation_fraction(self):
        adc = ADCSpec(bits=3)
        frac = adc.saturation_fraction(np.array([1.0, 8.0, 20.0, 3.0]))
        assert frac == 0.5
        assert adc.saturation_fraction(np.array([])) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ADCSpec(bits=0)
        with pytest.raises(ValueError):
            ADCSpec(bits=4, frequency_hz=0)


class TestSizing:
    def test_required_bits_covers_worst_case(self):
        # fragment 8 with 2-bit cells: worst sum 8*3 = 24 -> 5 bits
        assert required_adc_bits(8, 2) == 5
        assert required_adc_bits(4, 2) == 4
        assert required_adc_bits(16, 2) == 6
        assert required_adc_bits(1, 1) == 1

    def test_required_bits_validation(self):
        with pytest.raises(ValueError):
            required_adc_bits(0, 2)

    def test_paper_pairing(self):
        # The paper's published sizing (Sec. IV-C): one bit below worst case.
        assert paper_adc_bits(4) == 3
        assert paper_adc_bits(8) == 4
        assert paper_adc_bits(16) == 5

    def test_paper_pairing_extrapolates(self):
        assert paper_adc_bits(32) == 6
        assert paper_adc_bits(2) == 2


class TestSampleHold:
    def test_holds_copy(self):
        sh = SampleHold()
        x = np.array([1.0, 2.0])
        held = sh.hold(x)
        x[0] = 99.0
        np.testing.assert_array_equal(held, [1.0, 2.0])
