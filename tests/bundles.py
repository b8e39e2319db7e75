"""Edits of networks and model files shared by the tests: a network whose
output is exactly zero, and a model file in the retired v1 layout."""


def zero_output(bundle):
    """Zero the output layer's ``w`` and ``b``, so that the output is exactly
    0 in either mode whatever the hidden layers compute: a direct arch then
    predicts 0 and a residual arch the closed form. Returns the bundle."""
    last = bundle.layers[-1]
    last.w[:] = 0.0
    last.b[:] = 0.0
    return bundle


def to_v1(payload):
    """Rewrite a parsed model file in the ``sabrkit-model-v1`` layout, in
    which every layer held ``w``, ``b`` and ``bn``: zero hidden biases and
    a null batch norm on the output layer."""
    payload["format"] = "sabrkit-model-v1"
    for layer in payload["layers"]:
        layer.setdefault("b", [0.0] * len(layer["w"][0]))
        layer.setdefault("bn", None)
