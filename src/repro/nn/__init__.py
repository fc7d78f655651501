"""Neural-network layer library built on :mod:`repro.autodiff`.

Modules follow a compact PyTorch-like API: parameters are registered
automatically, ``train()``/``eval()`` toggle dropout and batch-norm
behaviour, and ``state_dict``/``load_state_dict`` enable the parameter
versioning that PipeDream's weight stashing requires.
"""

from repro import lazy_exports

__all__ = lazy_exports(globals(), {
    ".module": "Module Parameter Sequential",
    ".layers": "Linear Conv2d MaxPool2d AvgPool2d GlobalAvgPool2d "
               "BatchNorm2d ReLU Tanh Sigmoid Dropout Embedding Flatten",
    ".rnn": "LSTM LSTMCell",
    ".attention": "LayerNorm MultiHeadSelfAttention TransformerEncoderLayer",
    ".loss": "CrossEntropyLoss",
})
