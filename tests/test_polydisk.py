"""The [re, im] codec."""

import numpy as np

from blochlab.reports import jsonable


class TestSerialization:
    def test_point_json_round_trip(self):
        z = np.array([0.1 + 0.2j, -0.3j])
        again = [complex(re, im) for re, im in jsonable(z)]
        np.testing.assert_array_equal(again, z)
