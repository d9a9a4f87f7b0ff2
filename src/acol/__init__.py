"""Auto-clustering output layer with graph-based activity regularization.

A dense network whose output layer carries ``k`` duplicated softmax nodes
per parent class. Training sees only coarse parent labels; a regularizer on
the rectified pre-softmax activities pushes the duplicates to specialize, so
the argmax node becomes a latent sub-class annotation.
"""

__version__ = "0.1.0"
